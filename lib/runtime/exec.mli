(** Flat-bytecode dispatch loop: MiniLang's execution engine.

    A method body is an [int array] of variable-width instructions, each
    laid out as [op; ticks; operands...]; [ticks] batches the
    {!Vm.tick}s of the AST nodes that start at the instruction, keeping
    [Vm.steps] equal to one tick per evaluated expression or executed
    statement at every instruction boundary.  Loops and
    try/catch/finally run nested sub-blocks through site records;
    straight-line control flow uses jumps within one array.  Emission
    lives in [Failatom_minilang.Bytecode]; this module only executes.

    The control stack is explicit: one loop drives heap-allocated
    frames (registers, position, active loop and try blocks), and
    filter [post]/[unwind] are frame-level continuations, so a call
    from interpreted code never nests on the native stack.  The
    continuation at a filter's [pre] or a hook call can therefore be
    copied ({!capture}) and run again ({!resume_raise}).

    Evaluation order, error messages, heap allocation order,
    step/call/inline-cache counters and GC root visibility are all
    observable (in outputs, counters and detection run logs); the
    golden engine table [test/golden/engine_runs.txt] pins them for
    every bundled application. *)

exception Error of string * int * int
(** A genuine defect in the interpreted program with its source (line,
    column); re-raised by [Compile] as [Runtime_error].  MiniLang-level
    exceptions use {!Vm.Mini_raise} as everywhere else. *)

exception Break_loop
exception Continue_loop
(** A [break] or [continue] outside any loop of its body unwinds across
    MiniLang call frames into the innermost loop of a caller (observable
    behaviour the goldens pin).  Within one activation that is explicit
    unwinding; across a native boundary it travels as these
    exceptions. *)

(** {1 Opcodes} *)

val n_ops : int

val op_names : string array
(** Mnemonic per opcode, indexed by opcode number ([n_ops] entries). *)

val op_width : int array
(** Total instruction width (opcode + ticks + operands) per opcode. *)

val op_end : int
val op_const : int
val op_null : int
val op_this : int
val op_load : int
val op_fail : int
val op_neg : int
val op_not : int
val op_binop : int
val op_truthy : int
val op_jmp : int
val op_jf : int
val op_getfield : int
val op_getidx : int
val op_call : int
val op_super : int
val op_superck : int
val op_superdyn : int
val op_fncall : int
val op_new : int
val op_array : int
val op_store : int
val op_storechk : int
val op_setfield : int
val op_setidx : int
val op_pop : int
val op_ret : int
val op_retnull : int
val op_throw : int
val op_break : int
val op_cont : int
val op_while : int
val op_for : int
val op_try : int
val op_tickn : int
val op_load2 : int
val op_loadc : int
val op_loadf : int
val op_thisf : int
val op_constb : int
val op_loadb : int
val op_lcb : int
val op_bjf : int
val op_bsc : int
val op_callt : int
val op_setft : int
val op_callp : int
val op_fncallp : int
val op_calltp : int
val op_lcbs : int
val op_lcbjf : int
val op_bret : int
val op_lret : int
val op_nret : int
val op_tfret : int
val op_lcbr : int
val op_llb : int
val op_llbs : int
val op_llbjf : int
val op_llbr : int
val op_cret : int
val op_tfcb : int
val op_fncalltf : int
val op_lsetft : int
val op_cbsetft : int
val op_tret : int
val op_csetft : int
val op_tfcbjf : int
val op_fncalltf2 : int

(** {1 Code objects}

    Built by the emitter ([Failatom_minilang.Bytecode]); executed here.
    All records are transparent so the emitter can construct them. *)

type call_site = {
  cs_name : string;
  cs_cache : (string * int) ref;
      (** monomorphic inline cache (class name, method index), shared by
          every VM instantiated from the image; replaced with a single
          write so cross-domain sharing is race-free *)
  cs_resolve : string -> int;  (** image method index, or -1 *)
}

type new_site = {
  ns_cls : string;
  ns_known : bool;
  ns_layout : string array;
      (** the class's {!Heap.layout}, shared by its instances *)
  ns_init : int;  (** image method index of [init], or -1 *)
  ns_is_exc : bool;
  ns_line : int;
  ns_col : int;
}

type loop_site = {
  ls_cond : int array;  (** [[||]] = always true (condition-less for) *)
  ls_update : int array;  (** [[||]] = none *)
  ls_body : int array;
}

type try_site = {
  ts_body : int array;
  ts_catches : (string * int * int array) array;
      (** handler class, catch-variable slot, handler body *)
  ts_fin : int array;  (** [[||]] = none *)
}

type env = {
  env_is_exc : Vm.t -> string -> bool;
  env_exn_matches : Vm.t -> Vm.exn_value -> string -> bool;
}

type code = {
  c_env : env;
  c_main : int array;
  c_consts : Value.t array;
  c_strs : string array;
  c_calls : call_site array;
  c_fns : fn_site array;
  c_news : new_site array;
  c_loops : loop_site array;
  c_trys : try_site array;
  c_nslots : int;
  c_stack : int;  (** register-file length: slots + max operand depth *)
}

and fbody = {
  mutable fb_code : code;
  mutable fb_params : int array;  (** register of each parameter *)
}
(** A compiled function body, filled in once the whole image is laid
    out (functions may call functions compiled later). *)

and fn_site = {
  fs_name : string;
  fs_target : fn_target;
}

and fn_target =
  | Native of (Vm.t -> Value.t list -> Value.t)  (** builtin or error stub *)
  | Compiled of fbody  (** user function: called by pushing a frame *)

type mbody = {
  mb_code : code;
  mb_params : int array;  (** register of each parameter *)
  mb_cls : string;
  mb_name : string;
  mb_line : int;  (** declaration position, for the arity error *)
  mb_col : int;
}
(** A compiled method body. *)

type Vm.body += Method_body of mbody
(** What {!Vm.meth.body} holds for methods of an image: interpreted
    callers push a frame for it instead of calling [impl]. *)

val unbound : Value.t
(** Slot sentinel, compared with [(==)]; reading it is the "unknown
    variable" error.  No program value is ever physically this one. *)

(** {1 Execution} *)

val tick_n : Vm.t -> int -> unit
(** [n] {!Vm.tick}s at once: same step-limit stop value and same
    deadline-poll cadence as [n] individual ticks. *)

val method_impl : mbody -> Vm.impl
(** The native entry of a compiled method: checks the arity (raising
    {!Error} at the declaration), then enters the engine — a new
    activation whose first frame runs the body (registered for GC root
    enumeration); calls the body makes to compiled methods and
    functions stay in that activation.  Returns the result ([Null] when
    the body falls off the end). *)

val new_fbody : unit -> fbody
(** A function body to fill in later. *)

val function_impl : fbody -> Vm.t -> Value.t list -> Value.t
(** The native entry of a compiled function, as {!method_impl}; an
    argument list of the wrong length — only possible for a directly
    applied function such as a parameterised [main], since call sites
    check arity — raises [Invalid_argument "List.iter2"]. *)

val invoke : Vm.t -> Value.t -> string -> Value.t list -> Value.t
(** [invoke vm recv m args]: a thread's root call, dispatched and
    failing as {!Vm.invoke} does, but made from a trampoline frame of a
    new activation, so the thread's whole stack — the root call's
    preemption opportunity and filters included — is frames that
    {!capture} and {!suspended} can copy.  A program defect leaves it as
    {!Error}. *)

(** {1 Continuations} *)

type resumable
(** A deep copy of an activation's frames and pending filter
    continuations, at a point where a filter's [pre] or a hook was
    running. *)

val capture : Vm.t -> resumable option
(** Called from inside a filter's [pre] or a hook that the engine is
    running: copies the continuation that call would raise into.
    [None] when the running activation is not the VM's outermost one
    (native re-entry: frames of the continuation live on the native
    stack) or when no such call is running. *)

val resume_raise : Vm.t -> resumable -> Vm.exn_value -> Value.t
(** Runs a captured continuation as if the captured call had raised
    the given exception there, to the end of the outermost frame:
    returns what that frame returned, or raises what escaped it, as the
    original activation would have.  The copy is consumed: resume each
    capture at most once. *)

type suspended
(** A MiniLang thread the scheduler holds suspended: its activation,
    whose frames stay untouched while the thread is suspended. *)

val suspended : Vm.machine -> in_call:bool -> suspended option
(** The thread whose activations are [machine], as the scheduler saw
    it suspend: at a call's preemption opportunity ([in_call]) or
    inside a builtin it called ([join], a monitor enter).  [None] when
    the thread is not suspended there in its outermost activation
    (native re-entry: part of its continuation is on the native stack
    of its fiber). *)

val continue_call : Vm.t -> suspended -> Value.t
(** Runs a copy of a thread suspended at a call's preemption
    opportunity, from there to the end of its outermost frame: makes the
    call, as the original would when resumed. *)

val continue_with :
  Vm.t -> suspended -> (Value.t, Vm.exn_value) result -> Value.t
(** Runs a copy of a thread suspended inside a builtin, as if the
    builtin had returned the value or raised the exception. *)

(** {1 Profiling}

    Per-opcode execution counts, recorded when {!profiling} is set
    (one branch per dispatched instruction when off).  This is the data
    source for [failatom profile] and [--flame]. *)

val profiling : bool ref

val op_counts : int array
(** Executions per opcode, indexed by opcode number. *)

val reset_profile : unit -> unit

val folded_profile : Failatom_obs.Obs.snap -> string
(** Folded-stack rendering of the recorded opcode counts plus the
    [Ns]-histograms of the given metrics snapshot (flamegraph.pl /
    speedscope "folded" input).  Opcode lines are dispatch counts under
    an "interp" root; span lines are total nanoseconds, with span-name
    dots as stack separators.  Written by [failatom profile --flame]
    and next to the benchmark's BENCH_interp.json. *)
