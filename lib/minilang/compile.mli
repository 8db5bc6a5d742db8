(** Staged compilation of MiniLang programs.

    {!image} performs the one-time work for a program — flattened
    per-class dispatch tables and field templates, bodies compiled to
    flat bytecode (locals become register slots) — and
    {!instantiate} turns the immutable image into a fresh {!Vm.t}
    cheaply, with per-run copies of the mutable method entries so that
    load-time interposition (attaching filters to method entries — the
    analog of the paper's bytecode-level JWG instrumentation) works on
    compiled programs without source access. *)

open Failatom_runtime

exception Runtime_error of string * Ast.pos
(** A genuine defect in the interpreted program (unknown variable, bad
    arity, type confusion, ...), as opposed to a MiniLang-level
    exception, which is raised as {!Vm.Mini_raise} and is catchable
    in-language. *)

type image
(** A compiled program: compiled bodies plus the static class layout.
    Immutable — one image may be instantiated any number of times,
    concurrently from several domains. *)

val image : Ast.program -> image
(** Compiles the program once.  Class declarations are resolved in two
    passes so that bodies can reference classes declared later. *)

val instantiate : image -> Vm.t
(** A fresh VM for one run of the image: new heap, output, globals and
    counters, and fresh method entries (so filters attached for this
    run do not leak into other instantiations). *)

val program : Ast.program -> Vm.t
(** [instantiate (image prog)].  Each detection run compiles its own
    VM, guaranteeing independent heaps across runs. *)

(** {1 Introspection}

    Read-only views of the finished layout for static analyses
    (exception flow, injection-point pruning): the flattened dispatch
    tables and class templates already encode inheritance, redeclared
    classes and the builtin exception hierarchy exactly as execution
    resolves them. *)

type class_summary = {
  cs_name : string;
  cs_super : string option;
  cs_fields : string list;  (** full template layout, inherited first *)
  cs_is_exception : bool;  (** transitively extends [Throwable] *)
  cs_user : bool;  (** declared by the program, not builtin *)
}

val image_classes : image -> class_summary list
(** Every class of the image: user classes in program order, then the
    builtin (exception) classes sorted by name. *)

val image_is_subclass : image -> string -> string -> bool
(** Subclass test over the image's class table — the relation [catch]
    matching uses at run time. *)

val dispatch_targets : image -> string -> string list
(** The defining classes of every implementation that dynamic dispatch
    of the given method name can reach, over all classes of the image
    (sorted; empty for unknown names). *)

val resolve_dispatch : image -> string -> string -> string option
(** [resolve_dispatch img cls mname] is the defining class of the
    implementation a call of [mname] on an instance of [cls] dispatches
    to — i.e. what [new cls(...)] invokes for [mname = "init"] — or
    [None] if the class or method is unknown. *)

val fork_raise :
  Vm.t -> Exec.resumable -> (unit -> Vm.exn_value) ->
  (Value.t, exn) result option
(** Called inside a run of {!run_main}, from a filter's [pre] or a hook
    whose continuation [k] was captured there ({!Exec.capture}): runs
    the rest of the run as if that call had raised [inject ()], on a
    {!Sched.fork} — other threads resume copies of their frames — and
    returns what {!run_main} would have returned ([Ok]) or raised
    ([Error]: a program defect as {!Runtime_error}, a MiniLang
    exception escaping the run as [Vm.Mini_raise]).  The steps, calls
    and scheduler counters interpreted are added to their metrics (the
    run they belong to is rewound before its harvest).  [None], with
    nothing run, when another thread cannot be copied. *)

val run_main : ?policy:Sched.policy -> Vm.t -> Value.t
(** Runs the program's [main] function — always as MiniLang thread 0
    under {!Sched.run} — and returns its value.  [policy] defaults to
    {!Sched.Coop}, under which sequential programs behave exactly as
    before (no preemption, no decisions, empty schedule digest).
    @raise Invalid_argument if there is no [main]
    @raise Vm.Mini_raise if an exception escapes [main]. *)
