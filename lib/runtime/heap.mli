(** The simulated heap.

    Every object and array of the instrumented program lives here, keyed
    by an integer identity.  The heap exposes a write barrier that fires
    before any mutation (or {!free}) of an object's payload.  The
    barrier feeds the heap's own stack of active copy-on-write
    {!type-shadow}s — the dirty-set/saved-payload layer shared by
    checkpoints ({!Checkpoint}) and differential detection snapshots
    ({!Shadow}) — and then an optional external hook
    ({!field-on_write}). *)

type payload =
  | Obj of { cls : string; fields : (string, Value.t) Hashtbl.t }
  | Arr of Value.t array

type shadow = {
  mutable shadow_saved : (Value.obj_id, payload) Hashtbl.t option;
      (** pre-write payload of every object mutated or freed while the
          shadow was active; the key set is the shadow's dirty set.
          [None] until the first write — opening a shadow must not
          allocate *)
  mutable shadow_tid : (Value.obj_id, int) Hashtbl.t option;
      (** which MiniLang thread first dirtied each saved object: the
          per-thread COW dirty sets.  Payloads are shared with
          [shadow_saved] (the merged view read at canonicalization), so
          the union of the per-thread sets is exactly the single-shadow
          dirty set *)
  mutable shadow_active : bool;  (** stops recording once closed *)
}
(** One copy-on-write shadow record.  Lifecycle and queries live in
    {!Shadow}; the representation is here only because the heap owns the
    stack of active shadows. *)

type t = {
  uid : int;  (** distinguishes heaps; usable as a hash key *)
  mutable store : payload option array;
      (** indexed by identity — identities are dense and never reused,
          so a flat array replaces the hash table on the interpreter's
          hot path; [None] marks a freed slot *)
  mutable next_id : Value.obj_id;
  mutable live : int;  (** number of live (Some) entries *)
  mutable allocations : int;  (** total allocations ever made *)
  mutable barrier_hits : int;  (** total write-barrier firings ever made *)
  mutable shadows : shadow list;
      (** active shadows, innermost first; maintained by {!Shadow} *)
  mutable cur_tid : int;
      (** MiniLang thread currently mutating this heap; kept in step
          with the VM by the scheduler via {!set_cur_tid} *)
  mutable on_write : (Value.obj_id -> unit) option;
      (** external write-barrier hook, called with the object's id
          before each mutation (or free) of its payload, after the
          active shadows have recorded it *)
  mutable write_gen : int;  (** bumped once per payload mutation *)
  mutable wstamp : int array;
      (** per-identity stamp: the {!field-write_gen} value of the
          object's latest mutation (or rollback restore).  Read through
          {!write_stamp} by the incremental-canonicalization memo
          ({!Object_graph.Memo}) to revalidate cached canonical forms
          without traversing payloads *)
  mutable wcount : int array;
      (** payload mutations per MiniLang thread, indexed by thread id.
          Read through {!writes_by_tid}: comparing the deltas of
          [write_gen] and one thread's own count over a window counts
          writes made by {e other} threads during that window in O(1) *)
}

exception Dangling_reference of Value.obj_id
(** Raised when dereferencing an identity that was {!free}d. *)

val create : unit -> t

val set_cur_tid : t -> int -> unit
(** Tags subsequent write-barrier saves with this MiniLang thread id.
    Shadows never alias across threads: a saved object belongs to
    exactly one thread's dirty set — the thread whose write first
    triggered the save ({!type-shadow}[.shadow_tid]). *)

val live_count : t -> int
(** Number of objects currently on the heap. *)

val allocations : t -> int

val barrier_hits : t -> int
(** Total number of write-barrier firings (mutations and frees) over
    the heap's lifetime.  A cheap per-heap count, harvested into the
    observability registry at run boundaries. *)

val write_gen : t -> int
(** Monotonic mutation generation: bumped once per payload mutation,
    free, or rollback restore.  Equal generations imply an unchanged
    heap, so a memoized canonical form is revalidated with one integer
    compare when nothing was written since it was built. *)

val write_stamp : t -> Value.obj_id -> int
(** Generation of [id]'s latest mutation; [0] if never mutated since
    allocation.  [write_stamp h id <= g] for every object in a graph
    means the graph is unchanged since generation [g]. *)

val writes_by_tid : t -> int -> int
(** Total payload mutations (including rollback restores) made so far
    by the given MiniLang thread.  With [g0 = write_gen h] and
    [o0 = writes_by_tid h tid] captured at the start of a window,
    [(write_gen h - g0) - (writes_by_tid h tid - o0) > 0] detects — in
    O(1) and exactly — that some {e other} thread wrote during the
    window.  The production rollback and the canary validator use this
    to tell scheduler interference from a failed restoration. *)

val get : t -> Value.obj_id -> payload
(** @raise Dangling_reference if the object does not exist. *)

val mem : t -> Value.obj_id -> bool

val alloc : t -> payload -> Value.obj_id
(** Allocates a payload as-is (no defensive copy). *)

val alloc_object : t -> cls:string -> (string * Value.t) list -> Value.obj_id
(** Allocates an object of class [cls] with the given fields. *)

val alloc_array : t -> Value.t array -> Value.obj_id
(** Allocates an array initialized with a copy of the given values. *)

val free : t -> Value.obj_id -> unit
(** Removes an object; used by the collector and by rollback cleanup.
    Fires the write barrier first, so active shadows retain the freed
    object's last payload. *)

val barrier : t -> Value.obj_id -> unit
(** Fires the write barrier for [id]: every active shadow saves the
    object's current payload on its first write, then the external
    {!field-on_write} hook (if any) runs. *)

val class_of : t -> Value.obj_id -> string option
(** Class name of an object; [None] for arrays. *)

val field_names : t -> Value.obj_id -> string list
(** Sorted field names of an object; [[]] for arrays. *)

val get_field : t -> Value.obj_id -> string -> Value.t option
val set_field : t -> Value.obj_id -> string -> Value.t -> unit

val array_length : t -> Value.obj_id -> int option
(** Length of an array; [None] for objects. *)

val get_elem : t -> Value.obj_id -> int -> Value.t option
(** [None] when out of bounds or not an array. *)

val set_elem : t -> Value.obj_id -> int -> Value.t -> bool
(** [false] when the index is out of bounds (the VM turns that into an
    [IndexOutOfBoundsException]). *)

val copy_payload : payload -> payload
(** A detached copy of a payload: the field table / element array is
    duplicated, the values (including references) kept as-is.  This is
    the unit of checkpointing. *)

val restore_payload : t -> Value.obj_id -> payload -> unit
(** Restores a previously copied payload in place, bypassing the write
    barrier's {!field-on_write} hook (rollback must not re-trigger
    checkpointing).  Active shadows that hold no copy of the object yet
    save its pre-restore payload, so a rollback on one thread never
    changes the before-state another thread's shadow reads.  No-op if
    the object no longer exists. *)

val successors : t -> Value.obj_id -> Value.obj_id list
(** Direct successors: every reference stored in the object. *)

val iter_ids : t -> (Value.obj_id -> unit) -> unit
