(** A string-keyed table bounded by FIFO eviction: once full, adding a
    key evicts the oldest binding.  Not thread-safe: callers hold their
    own lock. *)

type 'a t

val create : int -> 'a t
(** An empty table holding at most the given number of bindings. *)

val find : 'a t -> string -> 'a option

val add : 'a t -> string -> 'a -> bool
(** Binds [key] unless it is already bound (then nothing changes),
    first evicting the oldest binding when the table is full.  Returns
    whether it evicted one. *)

val remove : 'a t -> string -> unit

val length : 'a t -> int
