(** Checkpoint / rollback of object graphs (paper Listing 2), as the
    copy-on-write variant its §6.2 suggests.

    A checkpoint protects the object graph reachable from its roots at
    {!take} time.  Taking one opens a {!Shadow} — O(1), nothing is
    traversed or copied — and the heap's write barrier saves an
    object's payload on its first mutation while the checkpoint is
    active.  {!rollback} restores the saved payloads of the protected
    graph {e in place}, so every alias observes the restored state (the
    paper's [replace(this, objgraph)]).  Objects allocated after the
    checkpoint are left as they are — an exception constructed inside
    the protected call keeps its message — and become garbage when
    unreachable, reclaimed by {!Gc_heap.collect}.

    This is the one rollback engine behind every atomicity wrapper:
    load-time masking, the woven source-flavor hooks and the production
    wrappers.  {!Eager} keeps the paper's eager copy as the reference
    the tests and benchmarks compare against. *)

type t

val take : ?closed:bool -> Heap.t -> Value.t list -> t
(** [take heap roots] checkpoints everything reachable from [roots],
    for the MiniLang thread currently running on [heap]
    ({!Heap.t.cur_tid}).  [closed] (default [false]) asserts that the
    protected code can reach no object that existed at [take] except
    through [roots] — true for a method call whose receiver and
    reference arguments are all roots.  It lets rollback restore the
    dirty set without re-deriving the entry-time graph when no other
    thread wrote during the window.  Checkpoints nest (each active one
    records independently). *)

val size : t -> int
(** Number of payloads saved so far: the objects written (or freed)
    while the checkpoint was active. *)

val rollback : t -> unit
(** Restores every object of the entry-time graph to its payload at
    {!take}.  Writes by other threads to objects outside that graph
    survive.  O(dirty) when [closed] and no other thread wrote; O(graph)
    otherwise. *)

val dispose : t -> unit
(** Detaches the checkpoint from the write barrier.  Must be called
    exactly once, whether or not it was rolled back. *)

val with_checkpoint : Heap.t -> Value.t list -> (t -> 'a) -> 'a
(** Scoped form: disposes the checkpoint on exit, even on exceptions. *)

(** The paper's eager checkpoint: traverse the graph at take time and
    copy every reachable payload up front.  The reference semantics the
    copy-on-write checkpoint is tested against; no wrapper uses it. *)
module Eager : sig
  type t

  val take : Heap.t -> Value.t list -> t

  val size : t -> int
  (** Number of payloads copied: the size of the reachable graph. *)

  val rollback : t -> unit
end
