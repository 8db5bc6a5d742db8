(** The simulated heap.

    Every object and array of the instrumented program lives here, keyed
    by an integer identity.  The heap exposes a write barrier that fires
    before any mutation (or {!free}) of an object's payload.  The
    barrier counts the write and feeds the heap's own stack of active
    copy-on-write {!type-shadow}s — the dirty-set/saved-payload layer
    shared by checkpoints ({!Checkpoint}) and differential detection
    snapshots ({!Shadow}).

    An object payload is flat: field names sorted and duplicate-free
    (the canonical order of Definition 1) beside one value slot per
    name.  Objects allocated with one class {!layout} share one
    physical [names] array, so a payload copy duplicates only [vals]. *)

type payload =
  | Obj of { cls : string; names : string array; vals : Value.t array }
      (** [names] is sorted, duplicate-free and never mutated; [vals.(i)]
          is the value of field [names.(i)] *)
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
  mutable write_gen : int;  (** bumped once per payload mutation *)
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
    free, or rollback restore. *)

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

val layout : string list -> string array
(** A class's field layout: the names sorted, duplicates dropped.  Built
    once per class and shared by its instances ({!alloc_layout}). *)

val alloc_layout : t -> cls:string -> string array -> Value.obj_id
(** Allocates an object of class [cls] with every field of the given
    {!layout} null; the object shares the layout array as its [names]. *)

val alloc_object : t -> cls:string -> (string * Value.t) list -> Value.obj_id
(** Allocates an object of class [cls] with the given fields, in a
    [names] array of its own; of several bindings of one name the last
    wins. *)

val alloc_array : t -> Value.t array -> Value.obj_id
(** Allocates an array initialized with a copy of the given values. *)

val free : t -> Value.obj_id -> unit
(** Removes an object; used by the collector and by rollback cleanup.
    Fires the write barrier first, so active shadows retain the freed
    object's last payload. *)

val barrier : t -> Value.obj_id -> unit
(** Fires the write barrier for [id]: counts the write, and every
    active shadow saves the object's current payload on its first
    write. *)

val class_of : t -> Value.obj_id -> string option
(** Class name of an object; [None] for arrays. *)

val field_names : t -> Value.obj_id -> string list
(** Sorted field names of an object; [[]] for arrays. *)

val field_slot : string array -> string -> int
(** Index of a name in an object's [names], or [-1]. *)

val get_field : t -> Value.obj_id -> string -> Value.t option

val set_field : t -> Value.obj_id -> string -> Value.t -> unit
(** Writes an existing field, behind the write barrier.
    @raise Invalid_argument naming the class and the field if the object
    has no such field, and on arrays. *)

val array_length : t -> Value.obj_id -> int option
(** Length of an array; [None] for objects. *)

val get_elem : t -> Value.obj_id -> int -> Value.t option
(** [None] when out of bounds or not an array. *)

val set_elem : t -> Value.obj_id -> int -> Value.t -> bool
(** [false] when the index is out of bounds (the VM turns that into an
    [IndexOutOfBoundsException]). *)

val copy_payload : payload -> payload
(** A detached copy of a payload: the value slots / element array are
    duplicated, the values (including references) kept as-is, and an
    object's [names] shared.  This is the unit of checkpointing. *)

val restore_payload : t -> Value.obj_id -> payload -> unit
(** Restores a previously copied payload in place, bypassing the write
    barrier (rollback must not re-trigger checkpointing) but counting
    the write in {!write_gen} and {!writes_by_tid}.  Active shadows
    that hold no copy of the object yet save its pre-restore payload,
    so a rollback on one thread never changes the before-state another
    thread's shadow reads.  No-op if the object no longer exists. *)

val successors : t -> Value.obj_id -> Value.obj_id list
(** Direct successors: every reference stored in the object. *)

val iter_ids : t -> (Value.obj_id -> unit) -> unit

(** {1 Forks}

    A fork point lets a tentative continuation run on the heap and be
    undone in O(objects it touched).  The detection driver forks each
    injected run from its injection point. *)

type fork

val fork : t -> fork
(** Opens a copy-on-write record of every payload mutated or freed from
    now on, and remembers the allocation watermark and the active
    shadows.  O(1). *)

val rewind : t -> fork -> unit
(** Restores the heap as it was at {!fork}: mutated and freed payloads
    back, objects allocated since removed (their ids are handed out
    again), [live] as it was, the shadows active at the fork active
    again with the dirty sets they had then (shadows opened since are
    dropped).  [allocations], [barrier_hits], {!write_gen} and
    {!writes_by_tid} keep counting the work done.  Call at most once per
    fork, with no other fork opened after it still pending. *)
