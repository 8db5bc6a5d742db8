(** Flat-bytecode dispatch loop: MiniLang's execution engine.

    A method body is an [int array] of variable-width instructions, each
    laid out as [op; ticks; operands...]; [ticks] batches the
    {!Vm.tick}s of the AST nodes that start at the instruction, keeping
    [Vm.steps] equal to one tick per evaluated expression or executed
    statement at every instruction boundary.  Loops and
    try/catch/finally run nested sub-blocks through site records;
    straight-line control flow uses jumps within one array.  Emission
    lives in [Failatom_minilang.Bytecode]; this module only executes.

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
(** Loop control must be OCaml exceptions (not statuses): a [break] or
    [continue] outside any loop of its body unwinds across MiniLang call
    frames into the innermost loop of a caller, and that observable
    behavior is preserved. *)

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

type fn_site = {
  fs_name : string;
  fs_target : Vm.t -> Value.t list -> Value.t;
}

type new_site = {
  ns_cls : string;
  ns_known : bool;
  ns_template : (string * Value.t) list;
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

type frame = {
  regs : Value.t array;
  n_slots : int;
  mutable this : Value.t;
  mutable ret : Value.t;
}

val unbound : Value.t
(** Slot sentinel, compared with [(==)]; reading it is the "unknown
    variable" error.  No program value is ever physically this one. *)

(** {1 Execution} *)

val tick_n : Vm.t -> int -> unit
(** [n] {!Vm.tick}s at once: same step-limit stop value and same
    deadline-poll cadence as [n] individual ticks. *)

val exec : code -> Vm.t -> frame -> Value.t array -> int array -> int -> int -> int
(** [exec code vm frame regs ops pc sp] dispatches until the block ends;
    returns 0 (fell off the end) or 1 (returned; value in [frame.ret]).
    Exposed for the engine's unit tests. *)

val run_root : code -> Vm.t -> Value.t -> int array -> Value.t list -> Value.t
(** [run_root code vm this param_slots args] runs a body in a fresh
    frame: registers the frame for GC root enumeration, fills parameter
    slots from [args] (a length mismatch — only possible for a directly
    applied function such as a parameterised [main] — raises
    [Invalid_argument "List.iter2"]), executes, and returns the result
    ([Null] when the body falls off the end). *)

(** {1 Profiling}

    Per-opcode execution counts and adjacent-pair counts, recorded when
    {!profiling} is set (one branch per dispatched instruction when
    off).  This is the data source for [failatom profile --flame] and
    for superinstruction selection (doc/bytecode.md). *)

val profiling : bool ref

val op_counts : int array
(** Executions per opcode, indexed by opcode number. *)

val pair_counts : int array
(** Adjacent dynamic pairs: index [prev * n_ops + cur]. *)

val reset_profile : unit -> unit

val folded_profile : Failatom_obs.Obs.snap -> string
(** Folded-stack rendering of the recorded opcode counts plus the
    [Ns]-histograms of the given metrics snapshot (flamegraph.pl /
    speedscope "folded" input).  Opcode lines are dispatch counts under
    an "interp" root; span lines are total nanoseconds, with span-name
    dots as stack separators.  Written by [failatom profile --flame]
    and next to the benchmark's BENCH_interp.json. *)
