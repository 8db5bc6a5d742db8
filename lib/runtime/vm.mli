(** The virtual machine: class table, method dispatch, interposition.

    Plays the role of the JVM / C++ runtime in the paper.  Method
    entries are mutable so that "load-time" tools — the analog of the
    paper's Java Wrapper Generator (JWG/BCEL filters, §5.2) — can attach
    pre/post filters to any method after compilation, without source
    access. *)

type exn_value = {
  exn_class : string;
  message : string;
  exn_obj : Value.t;  (** the heap object carried by the exception *)
}

exception Mini_raise of exn_value
(** A MiniLang-level exception in flight.  Catchable in-language;
    distinct from OCaml-level errors such as {!Unknown_method}. *)

type body = ..
(** What a method entry runs besides its native [impl]: the execution
    engine extends this with its compiled bodies, so a call made from
    interpreted code pushes a heap frame instead of re-entering the
    engine through [impl]. *)

type body += No_body  (** hand-written method: only [impl] *)

type machine = ..
(** The execution engine's resumable control state (extended by the
    engine). *)

type machine += No_machine  (** no interpreter activation running *)

type sched = ..
(** The scheduler running this VM's MiniLang threads, extended by
    [Sched] so that a fork point can find the run it forks. *)

type sched += No_sched  (** no run in progress *)

type handle = ..
(** A host value a hook hands the program as a token (a detection
    snapshot, a masking checkpoint); see {!add_handle}. *)

type t = {
  heap : Heap.t;
  classes : (string, cls) Hashtbl.t;
  functions : (string, func) Hashtbl.t;
  out : Buffer.t;  (** program output, captured per run *)
  hooks : (string, t -> Value.t list -> Value.t) Hashtbl.t;
      (** reflective builtins ([__inject], [__mark], ...) registered by
          the detection/masking engine; called by woven code *)
  mutable frame_roots : ((Value.t -> unit) -> unit) list;
      (** live interpreter frames, for GC root enumeration; each entry
          applies the marker to every value the frame holds *)
  mutable call_depth : int;
  mutable max_call_depth : int;
  mutable steps : int;
  mutable step_limit : int;  (** guards against runaway injected programs *)
  mutable deadline_ns : int;
      (** absolute monotonic deadline for this run (0 = none); see
          {!arm_deadline} *)
  mutable calls : int;  (** dynamic count of method + constructor calls *)
  mutable ic_hits : int;
      (** compiled call sites whose monomorphic inline cache hit; a
          plain per-VM count, harvested at run boundaries *)
  mutable ic_misses : int;  (** call sites that fell back to table lookup *)
  globals : (string, Value.t ref) Hashtbl.t;
  mutable global_roots : Value.t ref list;
      (** the global refs in (reverse) creation order, for deterministic
          GC-root enumeration *)
  mutable meth_table : meth array;
      (** this run's method entries indexed by compile-time slot; filled
          by [Compile.instantiate], empty for hand-built VMs *)
  mutable preempt_flag : bool;
      (** set by the scheduler for preemptive policies; when false,
          {!call_filtered} performs no effect (the sequential path) *)
  mutable cur_tid : int;  (** MiniLang thread running right now; 0 = main *)
  mutable sched_switches : int;
      (** context switches this run, counted by [Sched.run] as it goes *)
  mutable sched_preemptions : int;  (** switches forced at a Preempt point *)
  mutable sched_contention : int;  (** monitor acquisitions that blocked *)
  mutable sched_digest : string;
      (** hex FNV-1a digest of the scheduler decision stream, written by
          [Sched.run] at the end of the run; [""] for coop runs *)
  exn_fields_cache : (string, string array) Hashtbl.t;
      (** memoized per-class {!Heap.layout} for exception allocation;
          invalidated by [add_class] *)
  mutable machine : machine;
      (** the innermost interpreter activation of the running MiniLang
          thread, for capturing its continuation; maintained by the
          engine, and swapped per thread by the scheduler *)
  mutable sched : sched;  (** the scheduler of the run in progress *)
  handles : (int, handle) Hashtbl.t;  (** host values held by the program, by token *)
  mutable next_handle : int;
  mutable undo : (int * undo list) option;
      (** while a {!fork} point is open: the next token at the fork
          point, and the writes to the globals and the handle table
          {!rewind} undoes, newest first *)
}

and undo

and cls = {
  cls_name : string;
  super : string option;
  decl_fields : string list;
  cls_methods : (string, meth) Hashtbl.t;
}

and meth = {
  meth_class : string;  (** defining class *)
  meth_name : string;
  params : string list;
  throws : string list;  (** declared exception classes *)
  impl : impl;
  body : body;
      (** the compiled body behind [impl], when the engine built it
          ([No_body] otherwise).  Both are fixed when the method is
          added, so interpreted callers, which run [body], and native
          ones, which run [impl], cannot disagree; tools interpose
          through [filters]. *)
  mutable filters : filter list;  (** outermost first *)
}

and impl = t -> Value.t -> Value.t list -> Value.t
(** [impl vm this args] *)

and func = {
  fn_name : string;
  fn_params : string list;
  mutable fn_impl : t -> Value.t list -> Value.t;
}

and filter = {
  filt_name : string;
  pre : t -> meth -> Value.t -> Value.t list -> pre_action;
  post :
    t -> meth -> Value.t -> Value.t list -> (Value.t, exn_value) result ->
    post_action;
  unwind : t -> meth -> unit;
      (** called when a non-MiniLang (OCaml-level) exception —
          {!Deadline_exceeded}, {!Step_limit_exceeded}, a scheduler
          abort — unwinds through the call after [pre] ran.  [post]
          will never run for that call, so per-call state acquired in
          [pre] (checkpoints, shadows, snapshot stacks) must be
          released here.  Use {!no_unwind} when [pre] keeps none. *)
}
(** A JWG-style pre/post filter: [pre] may short-circuit the call or
    inject an exception; [post] observes the outcome (normal or
    exceptional) and may pass it on, replace it, or raise. *)

and pre_action = Proceed | Pre_return of Value.t | Pre_raise of exn_value
and post_action = Pass | Post_return of Value.t | Post_raise of exn_value

val no_unwind : t -> meth -> unit
(** The no-op [unwind] for filters without per-call state. *)

exception Unknown_class of string
exception Unknown_method of string * string
exception Step_limit_exceeded

exception Deadline_exceeded
(** The run exceeded its armed wall-clock deadline ({!arm_deadline}).
    An OCaml-level exception, like {!Step_limit_exceeded}: it is not
    catchable in-language, so it unwinds through MiniLang handlers and
    detection wrappers without being recorded as an exceptional
    return. *)

(** {1 Scheduling effects}

    Handled by [Sched.run]; performed by the concurrency builtins and,
    for [Preempt], by {!call_filtered} when [preempt_flag] is set.
    Method-call boundaries are the only preemption opportunities, so
    preemption points do not depend on how the interpreter batches its
    ticks. *)

type _ Effect.t +=
  | Preempt : unit Effect.t
  | Sched_spawn : (unit -> Value.t) -> int Effect.t
  | Sched_join : int -> Value.t Effect.t
  | Monitor_enter : int -> unit Effect.t
  | Monitor_exit : int -> unit Effect.t

(** {1 Built-in exception hierarchy} *)

val throwable : string
(** Root of the exception hierarchy ("Throwable"). *)

val exception_class : string
val runtime_exception : string
val error_class : string

val builtin_runtime_exceptions : string list
(** Runtime exceptions any operation may raise implicitly — injection
    candidates for every method (paper §4.1, step 1). *)

val builtin_errors : string list

val builtin_exception_classes : (string * string option) list
(** All built-in exception classes with their superclass. *)

(** {1 Construction} *)

val create : unit -> t
(** A fresh VM with the built-in exception classes registered. *)

val add_class : t -> ?super:string -> ?fields:string list -> string -> cls
val find_class : t -> string -> cls
val class_exists : t -> string -> bool

val is_subclass : t -> string -> string -> bool
(** [is_subclass vm c1 c2] holds iff [c1] = [c2] or transitively
    extends it. *)

val is_exception_class : t -> string -> bool

val all_fields : t -> string -> string list
(** All fields of a class, inherited ones first. *)

val add_method :
  t -> string -> name:string -> params:string list -> throws:string list ->
  ?body:body -> impl -> meth
(** [body] (default [No_body]) is the compiled body [impl] runs. *)

val lookup_method : t -> string -> string -> meth option
(** Resolution along the superclass chain. *)

val find_method : t -> string -> string -> meth
(** @raise Unknown_method when resolution fails. *)

val iter_methods : t -> (cls -> meth -> unit) -> unit

(** {1 Exceptions} *)

val make_exn : t -> string -> string -> exn_value
(** Allocates the exception object on the simulated heap (exceptions are
    objects, as in Java) with its [message] field set. *)

val throw : t -> string -> string -> 'a
(** [throw vm cls msg] raises {!Mini_raise} with a fresh exception. *)

val exn_matches : t -> exn_value -> string -> bool
(** Does a handler for the given class catch this exception? *)

(** {1 Dispatch} *)

val tick : t -> unit
(** Accounts one interpreter step.
    @raise Step_limit_exceeded past the budget.
    @raise Deadline_exceeded past an armed wall-clock deadline (checked
    every few thousand steps). *)

val arm_deadline : t -> timeout_s:float -> unit
(** Arms the run's wall-clock deadline [timeout_s] seconds from now.
    A divergent or hung run then aborts with {!Deadline_exceeded}
    instead of running to the step limit. *)

val call_filtered : t -> meth -> Value.t -> Value.t list -> Value.t
(** Runs a resolved method, threading the call through its filter chain
    (outermost first) and the depth/call accounting. *)

val invoke : t -> Value.t -> string -> Value.t list -> Value.t
(** Dynamic dispatch on a receiver value.  Raises
    [NullPointerException] (as {!Mini_raise}) on [Null] receivers. *)

(** {1 Filter (de-)installation: the load-time weaving API} *)

val attach_filter : meth -> filter -> unit
(** Prepends, so the latest attached filter is outermost. *)

val detach_filter : meth -> string -> unit
val attach_filter_everywhere : t -> filter -> unit

(** {1 Hooks, output, globals} *)

val register_hook : t -> string -> (t -> Value.t list -> Value.t) -> unit
val find_hook : t -> string -> (t -> Value.t list -> Value.t) option
val output : t -> string
val print_out : t -> string -> unit
val set_global : t -> string -> Value.t -> unit
val get_global : t -> string -> Value.t option

val iter_global_roots : t -> (Value.t -> unit) -> unit
(** Applies [f] to every global's current value, in deterministic
    (reverse-creation) order — the GC root set. *)

val add_handle : t -> handle -> int
(** Binds a fresh token to a host value.  Hooks keep the state they
    hand the program here rather than in tables of their own, so a
    {!fork} rewinds it with the run. *)

val take_handle : t -> int -> handle option
(** Unbinds a token, returning what it was bound to. *)

val set_cur_tid : t -> int -> unit
(** Sets the running MiniLang thread id on the VM and its heap, so
    write-barrier shadow saves are attributed to the right thread. *)

(** {1 Forks} *)

type fork
(** A fork point of a run: everything a tentative continuation can
    change outside the interpreter's frames. *)

val fork : t -> fork
(** Takes a fork point: {!Heap.fork}, a journal of the writes to the
    globals and the handle table, the output length, the per-run counters
    ([steps], [calls], [call_depth], inline-cache hits and misses) and
    the scheduler's counters and digest ([sched_*]).  O(1) besides the
    heap's. *)

val rewind : t -> fork -> unit
(** Puts the run back at the fork point (see {!Heap.rewind}), in time
    proportional to what changed since: globals created since are gone
    and the others hold their old values, tokens handed out since are
    unbound and those taken since bound again, the output is truncated,
    the counters are restored — so a continuation resumed later counts
    steps against the step limit exactly as a run that never took the
    fork would. *)
