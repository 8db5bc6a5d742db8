(** The daemon's persistent content-addressed blob store, the disk
    tier of {!Cache}: one file per blob under [<dir>/<ns>/<key>],
    written atomically (tmp + fsync + rename), shared by every daemon
    pointed at the same directory (a daemon and its restarted
    successor may overlap),
    LRU-bounded by total bytes (mtime is the recency clock; a hit
    touches it).

    The store never interprets payloads — byte-identity in and out is
    the contract — and its failures are silent: the durable tier is an
    accelerator, never a correctness dependency. *)

type t

val open_ : dir:string -> max_bytes:int -> t
(** Creates [dir] and its namespace directories ([results/],
    [images/]) as needed and sweeps temp files
    left by a crash.  Several processes may open the same directory. *)

val find : t -> ns:string -> key:string -> string option
(** The blob's exact stored bytes, touching its recency; [None] when
    absent (or the key is malformed). *)

val store : t -> ns:string -> key:string -> string -> unit
(** Atomically writes the blob, then evicts oldest-first while the
    store exceeds its byte bound.  Errors are swallowed. *)

val list : t -> ns:string -> string list
(** Keys in the namespace, most recently used first. *)

val stats : t -> int * int
(** (blob count, total bytes) across all namespaces. *)
