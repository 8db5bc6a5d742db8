(** AST → flat bytecode emission for the [Failatom_runtime.Exec]
    dispatch loop.

    One [Exec.code] is emitted per method or function body at image
    build time.  Slot resolution, static call/new/super resolution,
    error messages and {!Vm.tick} accounting are observable, and the
    golden engine table (test/golden/engine_runs.txt) pins them.  The
    tick of every AST node is folded into the tick
    field of the next emitted instruction; loops and try/catch/finally
    become nested sub-blocks referenced through site records; a
    peephole pass fuses the dominant dynamic instruction pairs
    (measured on the Table-1 app suite, see doc/bytecode.md) into
    superinstructions during emission. *)

open Failatom_runtime

type cls_info = {
  ci_layout : string array;  (** {!Heap.layout} of all fields *)
  ci_init : int;  (** image method index of [init], or -1 *)
  ci_is_exc : bool;
}

(** What the emitter needs to know about the image under construction,
    passed as closures by [Compile] so the module dependency stays
    one-way (Compile → Bytecode → Exec). *)
type linkage = {
  lk_resolve : string -> string -> int;
      (** class name → method name → image method index, or -1 *)
  lk_fn : string -> (int * Exec.fbody) option;
      (** user function: arity and (late-filled) body *)
  lk_class : string -> cls_info option;
  lk_is_exc : Vm.t -> string -> bool;
  lk_exn_matches : Vm.t -> Vm.exn_value -> string -> bool;
}

val binop_code : Ast.binop -> int
(** Operand encoding of a binary operator ([Ast.binop] declaration
    order, matching [Exec]'s evaluator). *)

val compile_body :
  linkage ->
  defining:(string * string option) option ->
  string list ->
  Ast.stmt list ->
  Exec.code * int array
(** [compile_body lk ~defining params body] emits a body and returns
    the code object plus the register index of each parameter.
    [defining] is the enclosing class and its superclass (for [super]
    resolution), or [None] in a free function.  Exposed for the fusion
    unit tests. *)

val compile_method_code :
  linkage ->
  cls_name:string ->
  defining_super:string option ->
  Ast.meth_decl ->
  Exec.code * int array

val compile_method :
  linkage -> cls_name:string -> defining_super:string option -> Ast.meth_decl ->
  Exec.mbody
(** The method's body for [Exec]: interpreted callers push a frame for
    it, native callers go through [Exec.method_impl] (arity-checked:
    "method C.m expects N argument(s), got M" at the declaration).
    Defects are raised as [Exec.Error]; [Compile] re-raises them as
    [Runtime_error] at the native boundary. *)

val compile_function : linkage -> Ast.func_decl -> Exec.fbody -> unit
(** Emits a function body into the given (until now placeholder)
    [fbody] — the one [linkage.lk_fn] handed out for that function. *)
