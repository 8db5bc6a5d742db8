(** Exception injection and atomicity checking (paper §4.1, Listing 1).

    One run arms a single threshold [InjectionPoint]; a global counter
    [Point] is incremented once per injectable exception type at every
    wrapped method entry, and the matching exception is thrown when the
    counter reaches the threshold.  On exceptional return, the wrapper
    compares the receiver's object graph against the entry snapshot and
    marks the method atomic or non-atomic for this injection.

    The logic is exposed in the two forms of the paper's two
    implementations: {!filter} (pre/post filters for compiled programs —
    the Java/JWG path) and {!register_hooks} (reflective builtins called
    by wrapper methods spliced in by {!Source_weaver} — the
    C++/AspectC++ path). *)

open Failatom_runtime

type snapshot =
  | Eager_snap of Object_graph.node
      (** canonical form of the entry graph (paper Listing 1) *)
  | Cow_snap of { shadow : Shadow.t; roots : Value.t list }
      (** differential snapshot: a copy-on-write shadow opened at entry;
          the entry-time form is reconstructed only on an exceptional
          return whose dirty set intersects the reachable ids *)
(** The entry state captured by a wrapped call, per
    {!Config.snapshot_mode}.  Both modes yield identical marks. *)

type walker = {
  w_entry : Method_id.t -> string list -> first:int -> unit;
      (** a wrapped entry with injectable classes is reached; its points
          are [first], [first + 1], … in class order *)
  w_point : int -> (unit -> Vm.exn_value) -> unit;
      (** point [p] is reached (the counter already reads [p]) and will
          not fire; the injector, called at most once, makes this the
          run armed at [p] — it records the injection and allocates the
          exception, as a run with threshold [p] does here *)
}
(** Observer of a prefix-sharing walk (see {!Detect}).  The injector is
    only meaningful while [w_point] runs, inside the wrapper call that
    reached the point. *)

type state = {
  config : Config.t;
  analyzer : Analyzer.t;
  threshold : int;  (** this run's InjectionPoint *)
  mutable point : int;  (** the global Point counter *)
  mutable injected : (Method_id.t * string) option;
      (** injection site and exception class, once fired *)
  mutable injected_exn_id : int;
      (** heap id of the injected exception object, 0 before injection:
          distinguishes an escaped injected exception from a natural
          one by identity rather than class *)
  mutable marks : Marks.mark list;  (** reversed *)
  snap_stacks : (int, (Method_id.t * snapshot) list) Hashtbl.t;
      (** binary flavor: per-MiniLang-thread snapshot stacks (pre/post
          pairs of different threads interleave under preemption); the
          source flavor's snapshots are tokens of the VM's handle table
          ({!Vm.add_handle}), which a fork rewinds with the VM *)
  mutable walker : walker option;  (** [None] outside a walk *)
  mutable journal : journal option;
      (** while a {!save} point is open: the snapshot-stack writes
          {!restore} undoes *)
}

and journal

val make_state : Config.t -> Analyzer.t -> threshold:int -> state

type saved
(** The mutable part of a state: point counter, injection, marks and
    walker, and a journal of the snapshot stacks. *)

val save : state -> saved
(** A save point, O(1): the snapshot stacks are not copied; their
    writes are journaled from here on (first write per thread). *)

val restore : state -> saved -> unit
(** Back to a {!save}d state, in time proportional to the snapshot-stack
    writes since.  Snapshots are shared, not copied: a fork rewinds
    their copy-on-write shadows together with the heap. *)

val marks : state -> Marks.mark list
(** Marks recorded so far, in emission (callee-before-caller) order. *)

val filter : state -> Vm.meth -> Vm.filter
(** The injection wrapper of one method as a pre/post filter (binary
    flavor). *)

val attach : state -> Vm.t -> unit
(** Attaches {!filter} to every method of the VM. *)

val register_hooks : state -> Vm.t -> unit
(** Registers the reflective hooks ([__inject], [__snapshot], [__mark],
    [__drop]) that source-woven wrapper methods call (source flavor). *)
