(** Copy-on-write shadows: the differential snapshot engine.

    A shadow opened on a heap records, through the heap's write barrier,
    the pre-write payload of every object mutated (or freed) while it is
    active.  Opening is O(1); the shadow's cost is proportional to the
    number of objects actually touched, not to any graph size.  This is
    the shared dirty-set/saved-payload layer behind both the
    copy-on-write checkpoints of {!Checkpoint} — the rollback engine of
    every atomicity wrapper — and the differential detection snapshots
    of {!Failatom_core.Injection} (paper §6.2).

    Shadows nest freely (one per wrapped call); the heap keeps the
    active ones and its barrier feeds them all.  A shadow is confined to
    its heap's domain — no shared global state. *)

type t

val open_ : Heap.t -> t
(** Starts recording on the heap's write barrier.  O(1): nothing is
    traversed or copied up front. *)

val close : t -> unit
(** Stops recording and detaches the shadow from the heap.  Must be
    called exactly once; the saved payloads remain readable after. *)

val heap : t -> Heap.t

val dirty_count : t -> int
(** Number of objects mutated or freed so far while the shadow was
    active. *)

val is_dirty : t -> Value.obj_id -> bool

val saved_payload : t -> Value.obj_id -> Heap.payload option
(** The pre-write payload of a dirty object; [None] if clean. *)

val read_before : t -> Value.obj_id -> Heap.payload
(** The payload [id] had when the shadow was opened: the saved copy if
    dirty, the current payload otherwise.  Total over every object that
    existed at open time (freed objects were saved by the barrier).
    @raise Heap.Dangling_reference for ids that never existed. *)

val iter_saved : t -> (Value.obj_id -> Heap.payload -> unit) -> unit
(** Iterates over the dirty set with its saved payloads (rollback is
    [iter_saved t (Heap.restore_payload (heap t))]). *)

val dirty_by_thread : t -> (int * Value.obj_id list) list
(** The per-thread COW dirty sets, sorted by thread id (each id list
    sorted too).  The sets partition the merged dirty set: every dirty
    object belongs to exactly one thread — the one whose write first
    saved it — so the union over threads equals the single-shadow dirty
    set. *)

val with_shadow : Heap.t -> (t -> 'a) -> 'a
(** Scoped form: closes the shadow on exit, even on exceptions. *)
