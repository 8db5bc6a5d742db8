(* Flat-bytecode dispatch loop: the execution engine behind
   [Compile.image].

   A method body is an [int array] of variable-width instructions.  Every
   instruction is laid out as [op; ticks; operands...]: [ticks] is the
   number of AST nodes that semantically *start* at this instruction, so
   {!Vm.tick}-equivalent accounting is batched ([tick_n]) while keeping
   [Vm.steps] — observed by the metrics harvest, the step limit and the
   goldens — equal to one tick per evaluated expression or executed
   statement, at every instruction boundary.

   The control stack is explicit.  One loop ([exec], tail calls only)
   drives heap-allocated frames: a frame holds its registers, the
   instruction array it is in, [pc], [sp] and the loop and try blocks
   it is inside; its [parent] is the continuation that receives its
   outcome:

   - [K_call f]: frame [f] is suspended at a method-call instruction;
     completing the call also completes its depth accounting;
   - [K_fn f]: [f] is suspended at a function call (or a hook call);
   - [K_filter]: a load-time filter whose [post] (normal or exceptional
     outcome) or [unwind] (OCaml-level abort, loop control) is still
     due — interposition is a frame-level continuation, not a native
     call around the callee;
   - [K_root]: the native caller that entered the engine.

   Calls from interpreted code to compiled methods and functions push a
   frame; returning decodes the caller's suspended call instruction to
   place the result.  Loops and try/catch/finally run nested sub-blocks
   (separate instruction arrays referenced through site records); a
   frame keeps a stack of block records, and a sub-block's END, a
   [return], a MiniLang exception or a [break]/[continue] walks that
   stack — running [finally] blocks with the pending outcome — before
   leaving the frame.  A [break] or [continue] outside any loop of its
   body unwinds *across* frames into the innermost loop of a caller (a
   degenerate but observable behaviour the goldens pin); it crosses a
   native boundary as {!Break_loop} / {!Continue_loop}.  MiniLang
   exceptions raised by helpers arrive as {!Vm.Mini_raise}; program
   defects raise {!Error} with the source position, converted to
   [Compile.Runtime_error] where the engine returns to native code
   (this module cannot see the AST).

   Because the whole continuation is data, it can be copied: {!capture}
   deep-copies the frames at the point a filter's [pre] or a hook is
   running, and {!resume_raise} runs the copy as if that call had raised
   — the detection driver forks each injected run from its injection
   point this way.  A thread the scheduler holds suspended is copied
   and resumed the same way ({!suspended}, {!continue_call},
   {!continue_with}), and a spawned thread's root call is made from a
   trampoline frame ({!invoke}), so each MiniLang thread is one
   activation.  Native re-entry (a builtin or filter calling
   {!Vm.invoke}) starts a nested activation; a point inside one is not
   capturable.

   The operand stack shares one [Value.t array] with the local-variable
   slots: registers [0, n_slots) are the slots, [n_slots, stack_size)
   the expression stack.  GC root enumeration marks [this] and the slot
   prefix of every live frame — stack temporaries are deliberately
   *not* roots: a frame's roots are exactly its receiver and its
   variables, so what a collection keeps never depends on the
   intermediate values of a half-evaluated expression. *)

(* A genuine defect in the interpreted program, with its source position
   (line, column).  [Compile] re-raises it as [Runtime_error]. *)
exception Error of string * int * int

(* Loop control crossing a native boundary: a [break]/[continue] that
   leaves the outermost frame of an activation is re-raised as one of
   these into the native caller, and an activation receiving one from
   native code unwinds its frames for it. *)
exception Break_loop
exception Continue_loop

let err line col fmt =
  Printf.ksprintf (fun s -> raise (Error (s, line, col))) fmt

(* ------------------------------------------------------------------ *)
(* Interned primitives                                                 *)
(* ------------------------------------------------------------------ *)

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse
let small_int_lo = -128
let small_int_hi = 1023

let small_ints =
  Array.init (small_int_hi - small_int_lo + 1) (fun i -> Value.Int (small_int_lo + i))

let vint n =
  if n >= small_int_lo && n <= small_int_hi then
    Array.unsafe_get small_ints (n - small_int_lo)
  else Value.Int n

(* Compared with (==): no program value is ever physically this one. *)
let unbound : Value.t = Value.Str "\000<unbound>"

(* ------------------------------------------------------------------ *)
(* Opcodes                                                             *)
(* ------------------------------------------------------------------ *)

(* Instruction layout: [op; ticks; operands...].  Operand legend:
   k = constant-pool index, s = string-pool index, t2 = tick count of a
   fused second component, l/c = source line/column, n = argument count.
   The last six opcodes are superinstructions produced by the emitter's
   peephole pass (see doc/bytecode.md); each fused component keeps its
   own tick operand so step accounting and error ordering are unchanged. *)
let op_end = 0 (* - ; end of block, status 0 *)
let op_const = 1 (* k ; push constant *)
let op_null = 2 (* - ; push null *)
let op_this = 3 (* - ; push receiver *)
let op_load = 4 (* slot s l c ; push local, unbound check *)
let op_fail = 5 (* s l c ; raise precomputed runtime error *)
let op_neg = 6 (* l c ; arithmetic negate *)
let op_not = 7 (* - ; logical not *)
let op_binop = 8 (* b l c ; binary operator (b = 0..10) *)
let op_truthy = 9 (* - ; replace top with vbool(truthy top) *)
let op_jmp = 10 (* target *)
let op_jf = 11 (* target ; pop, jump if not truthy *)
let op_getfield = 12 (* s l c *)
let op_getidx = 13 (* l c *)
let op_call = 14 (* site n ; method call through inline cache *)
let op_super = 15 (* midx n ; statically resolved super call *)
let op_superck = 16 (* s_sup s_m s_def l c ; pre-args dynamic lookup *)
let op_superdyn = 17 (* s_sup s_m s_def l c n ; dynamic super call *)
let op_fncall = 18 (* site n ; free function / builtin / hook *)
let op_new = 19 (* site n *)
let op_array = 20 (* n ; array literal *)
let op_store = 21 (* slot ; pop into local (var declaration) *)
let op_storechk = 22 (* slot s l c ; pop into local, unbound check *)
let op_setfield = 23 (* s l c *)
let op_setidx = 24 (* l c *)
let op_pop = 25 (* - *)
let op_ret = 26 (* - ; frame.ret <- pop, status 1 *)
let op_retnull = 27 (* - ; frame.ret <- null, status 1 *)
let op_throw = 28 (* l c *)
let op_break = 29 (* - *)
let op_cont = 30 (* - *)
let op_while = 31 (* site *)
let op_for = 32 (* site *)
let op_try = 33 (* site *)
let op_tickn = 34 (* - ; ticks only (flush point) *)
let op_load2 = 35 (* s1 n1 l1 c1 t2 s2 n2 l2 c2 ; load;load *)
let op_loadc = 36 (* slot s l c t2 k ; load;const *)
let op_loadf = 37 (* slot s l c t2 f fl fc ; load;getfield *)
let op_thisf = 38 (* t2 f l c ; this;getfield *)
let op_constb = 39 (* k t2 b l c ; const;binop *)
let op_loadb = 40 (* slot s l c t2 b bl bc ; load;binop *)
let op_lcb = 41 (* slot s l c t2 k t3 b bl bc ; load;const;binop *)
let op_bjf = 42 (* b l c t2 target ; binop;jump-if-false *)
let op_bsc = 43 (* b l c t2 slot s sl sc ; binop;storechk *)
let op_callt = 44 (* site n ; method call on [this] (no receiver push) *)
let op_setft = 45 (* s l c ; setfield on [this] *)
let op_callp = 46 (* site n t2 ; call;pop (result discarded) *)
let op_fncallp = 47 (* site n t2 ; fncall;pop *)
let op_calltp = 48 (* site n t2 ; callt;pop *)
let op_lcbs = 49 (* slot s l c t2 k t3 b bl bc t4 dslot ds dl dc ; lcb;storechk *)
let op_lcbjf = 50 (* slot s l c t2 k t3 b bl bc t4 target ; lcb;jump-if-false *)
let op_bret = 51 (* b l c t2 ; binop;ret *)
let op_lret = 52 (* slot s l c t2 ; load;ret *)
let op_nret = 53 (* t2 ; null;ret *)
let op_tfret = 54 (* t2 f l c t3 ; thisf;ret *)
let op_lcbr = 55 (* slot s l c t2 k t3 b bl bc t4 ; lcb;ret *)
let op_llb = 56 (* s1 n1 l1 c1 t2 s2 n2 l2 c2 t3 b bl bc ; load;load;binop *)
let op_llbs = 57 (* llb operands, t4 dslot ds dl dc ; llb;storechk *)
let op_llbjf = 58 (* llb operands, t4 target ; llb;jump-if-false *)
let op_llbr = 59 (* llb operands, t4 ; llb;ret *)
let op_cret = 60 (* k t2 ; const;ret *)
let op_tfcb = 61 (* t2 f fl fc t3 k t4 b bl bc ; thisf;const;binop *)
let op_fncalltf = 62 (* t2 f fl fc site n t3 ; fncall, last arg this.f *)
let op_lsetft = 63 (* slot s l c t2 f fl fc ; load;setfield-on-this *)
let op_cbsetft = 64 (* k t2 b bl bc t3 f fl fc ; constb;setfield-on-this *)
let op_tret = 65 (* t2 ; this;ret *)
let op_csetft = 66 (* k t2 f fl fc ; const;setfield-on-this *)
let op_tfcbjf = 67 (* tfcb operands, t5 target ; tfcb;jump-if-false *)
let op_fncalltf2 = 68 (* t2 f1 l1 c1 t3 t4 f2 l2 c2 site n t5 ; two this.f args *)

let n_ops = 69

let op_names =
  [| "END"; "CONST"; "NULL"; "THIS"; "LOAD"; "FAIL"; "NEG"; "NOT"; "BINOP";
     "TRUTHY"; "JMP"; "JF"; "GETFIELD"; "GETIDX"; "CALL"; "SUPER"; "SUPERCK";
     "SUPERDYN"; "FNCALL"; "NEW"; "ARRAY"; "STORE"; "STORECHK"; "SETFIELD";
     "SETIDX"; "POP"; "RET"; "RETNULL"; "THROW"; "BREAK"; "CONT"; "WHILE";
     "FOR"; "TRY"; "TICKN"; "LOAD2"; "LOADC"; "LOADF"; "THISF"; "CONSTB";
     "LOADB"; "LCB"; "BJF"; "BSC"; "CALLT"; "SETFT"; "CALLP"; "FNCALLP";
     "CALLTP"; "LCBS"; "LCBJF"; "BRET"; "LRET"; "NRET"; "TFRET"; "LCBR";
     "LLB"; "LLBS"; "LLBJF"; "LLBR"; "CRET"; "TFCB"; "FNCALLTF"; "LSETFT";
     "CBSETFT"; "TRET"; "CSETFT"; "TFCBJF"; "FNCALLTF2" |]

let op_width =
  [| 2; 3; 2; 2; 6; 5; 4; 2; 5; 2; 3; 3; 5; 4; 4; 4; 7; 8; 4; 4; 3; 3; 6; 5;
     4; 2; 2; 2; 4; 2; 2; 3; 3; 3; 2; 11; 8; 10; 6; 7; 10; 12; 7; 10; 4; 5;
     5; 5; 5; 17; 14; 6; 7; 3; 7; 13; 15; 20; 17; 16; 4; 12; 9; 10; 11; 3; 7;
     14; 14 |]

(* ------------------------------------------------------------------ *)
(* Code objects                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-site monomorphic inline cache, shared by every VM instantiated
   from the image: the cached pair is replaced with a single write, so
   cross-domain sharing is race-free — a stale read just falls back to
   [cs_resolve].  Hits and misses are counted per VM ([Vm.ic_hits],
   [Vm.ic_misses]); a warm cache inherited from an earlier run therefore
   shows up as hits in the next one. *)
type call_site = {
  cs_name : string;
  cs_cache : (string * int) ref;
  cs_resolve : string -> int; (* image method index, or -1 *)
}

type new_site = {
  ns_cls : string;
  ns_known : bool; (* class present in the image *)
  ns_layout : string array; (* the class's [Heap.layout] *)
  ns_init : int; (* image method index of [init], or -1 *)
  ns_is_exc : bool;
  ns_line : int;
  ns_col : int;
}

type loop_site = {
  ls_cond : int array; (* [||] = always true (condition-less for) *)
  ls_update : int array; (* [||] = none *)
  ls_body : int array;
}

type try_site = {
  ts_body : int array;
  ts_catches : (string * int * int array) array; (* class, slot, body *)
  ts_fin : int array; (* [||] = none *)
}

(* Class-hierarchy queries, provided by the compiler so [throw] and
   [catch] match classes against the image tables first, and fall back
   to the dynamic VM walk for classes added by hand. *)
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
  c_stack : int; (* register-file length: slots + max operand depth *)
}

(* A compiled function body, filled in once the whole image is laid out
   (functions may call functions compiled later). *)
and fbody = {
  mutable fb_code : code;
  mutable fb_params : int array; (* register of each parameter *)
}

and fn_site = {
  fs_name : string; (* for the per-VM hook override check *)
  fs_target : fn_target;
}

and fn_target =
  | Native of (Vm.t -> Value.t list -> Value.t) (* builtin or error stub *)
  | Compiled of fbody (* user function: called by pushing a frame *)

(* A compiled method body: what {!Vm.meth.body} holds for methods of an
   image, so interpreted callers push a frame instead of calling
   [impl]. *)
type mbody = {
  mb_code : code;
  mb_params : int array; (* register of each parameter *)
  mb_cls : string;
  mb_name : string;
  mb_line : int; (* declaration position, for the arity error *)
  mb_col : int;
}

type Vm.body += Method_body of mbody

(* ------------------------------------------------------------------ *)
(* Profiling ([failatom profile] and its flame output)                *)
(* ------------------------------------------------------------------ *)

(* One branch per dispatched instruction when disabled.  Counts are
   process-global: the profile harness runs single-VM workloads. *)
let profiling = ref false
let op_counts = Array.make n_ops 0
let reset_profile () = Array.fill op_counts 0 n_ops 0
let record_op op = Array.unsafe_set op_counts op (Array.unsafe_get op_counts op + 1)

(* Folded-stack rendering (flamegraph.pl / speedscope "folded" input:
   one "frame;frame value" line per stack).  Opcode lines are dispatch
   counts under the synthetic "interp" root; span lines are the total
   nanoseconds of each Ns-histogram in the snapshot, with metric-name
   dots mapped to stack separators, so phase weights nest the way the
   span names do (detect.canonicalize under detect, etc.). *)
let folded_profile (snap : Failatom_obs.Obs.snap) =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i c ->
      if c > 0 then Printf.bprintf buf "interp;%s %d\n" op_names.(i) c)
    op_counts;
  List.iter
    (fun (name, h) ->
      if h.Failatom_obs.Obs.hs_count > 0 && h.Failatom_obs.Obs.hs_unit = "ns"
      then begin
        let stack = String.map (fun c -> if c = '.' then ';' else c) name in
        Printf.bprintf buf "%s %d\n" stack h.Failatom_obs.Obs.hs_sum
      end)
    snap.Failatom_obs.Obs.s_histograms;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Batched stepping                                                    *)
(* ------------------------------------------------------------------ *)

(* [n] ticks at once.  The step limit behaves as [n] single [Vm.tick]s
   would: on overrun, [steps] is left at [limit + 1], the value a
   per-node tick sequence stops at.  The deadline clock is read when the
   batch crosses a [deadline_check_mask + 1] boundary — [Vm.tick]'s
   [steps land mask = 0] test, applied to a range. *)
(* Cold continuation of [tick_n]: entered when the batch overran the
   step limit or crossed a deadline-poll boundary. *)
let tick_slow vm s0 s1 =
  if s1 > vm.Vm.step_limit then begin
    vm.Vm.steps <- vm.Vm.step_limit + 1;
    raise Vm.Step_limit_exceeded
  end;
  if
    vm.Vm.deadline_ns > 0
    && s1 lsr 12 <> s0 lsr 12
    && Failatom_obs.Obs.now_ns () > vm.Vm.deadline_ns
  then raise Vm.Deadline_exceeded

let[@inline] tick_n vm n =
  let s0 = vm.Vm.steps in
  let s1 = s0 + n in
  vm.Vm.steps <- s1;
  if s1 > vm.Vm.step_limit || (vm.Vm.deadline_ns > 0 && s1 lsr 12 <> s0 lsr 12)
  then tick_slow vm s0 s1

(* ------------------------------------------------------------------ *)
(* Value helpers (their error messages are pinned by the goldens)     *)
(* ------------------------------------------------------------------ *)

let binop_names =
  [| "+"; "-"; "*"; "/"; "%"; "=="; "!="; "<"; "<="; ">"; ">=" |]

let binop_fail op (a : Value.t) (b : Value.t) line col =
  err line col "operator %s not defined on %s and %s" binop_names.(op)
    (Value.type_name a) (Value.type_name b)

(* Operator codes 0..10 in [Ast.binop] declaration order. *)
let eval_binop vm op (a : Value.t) (b : Value.t) line col : Value.t =
  match op with
  | 0 -> (
    match a, b with
    | Value.Int x, Value.Int y -> vint (x + y)
    | Value.Str x, y -> Value.Str (x ^ Value.to_display_string y)
    | x, Value.Str y -> Value.Str (Value.to_display_string x ^ y)
    | _ -> binop_fail op a b line col)
  | 1 -> (
    match a, b with
    | Value.Int x, Value.Int y -> vint (x - y)
    | _ -> binop_fail op a b line col)
  | 2 -> (
    match a, b with
    | Value.Int x, Value.Int y -> vint (x * y)
    | _ -> binop_fail op a b line col)
  | 3 -> (
    match a, b with
    | Value.Int x, Value.Int y ->
      if y = 0 then Vm.throw vm "ArithmeticException" "division by zero"
      else vint (x / y)
    | _ -> binop_fail op a b line col)
  | 4 -> (
    match a, b with
    | Value.Int x, Value.Int y ->
      if y = 0 then Vm.throw vm "ArithmeticException" "modulo by zero"
      else vint (x mod y)
    | _ -> binop_fail op a b line col)
  | 5 -> vbool (Value.equal a b)
  | 6 -> vbool (not (Value.equal a b))
  | 7 -> (
    match a, b with
    | Value.Int x, Value.Int y -> vbool (x < y)
    | Value.Str x, Value.Str y -> vbool (String.compare x y < 0)
    | _ -> binop_fail op a b line col)
  | 8 -> (
    match a, b with
    | Value.Int x, Value.Int y -> vbool (x <= y)
    | Value.Str x, Value.Str y -> vbool (String.compare x y <= 0)
    | _ -> binop_fail op a b line col)
  | 9 -> (
    match a, b with
    | Value.Int x, Value.Int y -> vbool (x > y)
    | Value.Str x, Value.Str y -> vbool (String.compare x y > 0)
    | _ -> binop_fail op a b line col)
  | _ -> (
    match a, b with
    | Value.Int x, Value.Int y -> vbool (x >= y)
    | Value.Str x, Value.Str y -> vbool (String.compare x y >= 0)
    | _ -> binop_fail op a b line col)

let get_obj_field vm line col (recv : Value.t) field =
  match recv with
  | Value.Null ->
    Vm.throw vm "NullPointerException" ("read of field " ^ field ^ " on null")
  | Value.Ref id -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Obj { cls; names; vals } ->
      let i = Heap.field_slot names field in
      if i < 0 then err line col "class %s has no field %s" cls field
      else Array.unsafe_get vals i
    | Heap.Arr _ -> err line col "arrays have no fields (reading %s)" field)
  | v -> err line col "field read %s on %s" field (Value.type_name v)

let set_obj_field vm line col (recv : Value.t) field v =
  match recv with
  | Value.Null ->
    Vm.throw vm "NullPointerException" ("write of field " ^ field ^ " on null")
  | Value.Ref id -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Obj { cls; names; _ } ->
      if Heap.field_slot names field < 0 then
        err line col "class %s has no field %s" cls field
      else Heap.set_field vm.Vm.heap id field v
    | Heap.Arr _ -> err line col "arrays have no fields (writing %s)" field)
  | v -> err line col "field write %s on %s" field (Value.type_name v)

let get_index vm line col (recv : Value.t) (idx : Value.t) =
  match recv, idx with
  | Value.Null, _ -> Vm.throw vm "NullPointerException" "index read on null"
  | Value.Ref id, Value.Int i -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Arr a ->
      if i >= 0 && i < Array.length a then Array.unsafe_get a i
      else
        Vm.throw vm "IndexOutOfBoundsException"
          (Printf.sprintf "index %d of %d" i (Array.length a))
    | Heap.Obj _ -> err line col "indexing a non-array object")
  | Value.Ref _, v -> err line col "array index must be int, got %s" (Value.type_name v)
  | v, _ -> err line col "indexing %s" (Value.type_name v)

let set_index vm line col (recv : Value.t) (idx : Value.t) v =
  match recv, idx with
  | Value.Null, _ -> Vm.throw vm "NullPointerException" "index write on null"
  | Value.Ref id, Value.Int i -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Arr a ->
      if not (Heap.set_elem vm.Vm.heap id i v) then
        Vm.throw vm "IndexOutOfBoundsException"
          (Printf.sprintf "index %d of %d" i (Array.length a))
    | Heap.Obj _ -> err line col "indexing a non-array object")
  | Value.Ref _, w -> err line col "array index must be int, got %s" (Value.type_name w)
  | v, _ -> err line col "indexing %s" (Value.type_name v)

(* Dynamic instantiation for classes outside the image (added to a VM by
   hand): all (inherited) fields null, then [init] if the class defines
   or inherits one. *)
let instantiate_dyn vm line col cls args =
  if not (Vm.class_exists vm cls) then err line col "unknown class %s" cls;
  let id = Heap.alloc_layout vm.Vm.heap ~cls (Heap.layout (Vm.all_fields vm cls)) in
  let recv = Value.Ref id in
  (match Vm.lookup_method vm cls "init" with
   | Some _ -> ignore (Vm.invoke vm recv "init" args)
   | None -> (
     match args with
     | [] -> ()
     | [ Value.Str m ] when Vm.is_exception_class vm cls ->
       Heap.set_field vm.Vm.heap id "message" (Value.Str m)
     | _ -> err line col "class %s has no init method" cls));
  recv

(* ------------------------------------------------------------------ *)
(* Frames and continuations                                            *)
(* ------------------------------------------------------------------ *)

(* Block kinds: which part of a loop or try statement a frame's
   innermost sub-block is.  The loop kinds come first ([<= bk_for_update]
   is "a loop"). *)
let bk_while_cond = 0
let bk_while_body = 1
let bk_for_cond = 2
let bk_for_body = 3
let bk_for_update = 4
let bk_try = 5
let bk_catch = 6
let bk_fin = 7

(* What a [finally] block resumes when it completes normally. *)
type outcome =
  | ODone
  | ORet of Value.t (* captured eagerly: [finally] may return itself *)
  | ORaise of Vm.exn_value
  | OBreak
  | OCont

(* One active loop or try statement of a frame.  [b_ops]/[b_pc] locate
   the WHILE/FOR/TRY instruction in the enclosing array (execution
   resumes after it); every sub-block runs at [b_sp].  A loop reuses its
   record across iterations by switching [bk]. *)
type block = {
  mutable bk : int;
  b_ops : int array;
  b_pc : int;
  b_sp : int;
  b_loop : loop_site; (* [no_loop] for try blocks *)
  b_try : try_site; (* [no_try] for loops *)
  mutable b_pending : outcome;
  b_next : block; (* enclosing block of the same frame *)
}

type frame = {
  code : code;
  regs : Value.t array;
  this : Value.t;
  mutable ops : int array; (* saved while suspended at a call *)
  mutable pc : int; (* the call instruction, while suspended *)
  mutable sp : int;
  mutable blocks : block; (* innermost first; [no_block] at body level *)
  parent : cont;
}

and cont =
  | K_root
  | K_call of frame
  | K_fn of frame
  | K_filter of filter_cont

and filter_cont = {
  f : Vm.filter;
  f_meth : Vm.meth;
  f_recv : Value.t;
  f_args : Value.t list;
  f_next : cont;
}

let no_loop = { ls_cond = [||]; ls_update = [||]; ls_body = [||] }
let no_try = { ts_body = [||]; ts_catches = [||]; ts_fin = [||] }

let rec no_block =
  { bk = -1; b_ops = [||]; b_pc = 0; b_sp = 0; b_loop = no_loop; b_try = no_try;
    b_pending = ODone; b_next = no_block }

(* One engine activation: entered from native code ([run_root] or
   [resume_raise]) and left when its outermost frame completes.
   [cur] is the frame executing right now; [at] is the continuation a
   filter's [pre] or a hook call that is running right now would raise
   into — the capture point of {!capture}. *)
type seg = {
  mutable cur : frame;
  prev : Vm.machine; (* the enclosing activation of this VM *)
  mutable at : cont;
  mutable pending : pending;
      (* while suspended at the preemption opportunity of a call from
         [cur]: the call, which a copy of this thread makes when it
         resumes (see {!suspended}); [no_pending] otherwise *)
}

and pending = {
  p_meth : Vm.meth;
  p_recv : Value.t;
  p_base : int; (* the arguments are [cur]'s registers from here ... *)
  p_n : int;
  p_args : Value.t list; (* ... or, when [p_base < 0], this list *)
}

let no_pending =
  { p_meth =
      { Vm.meth_class = ""; meth_name = ""; params = []; throws = [];
        impl = (fun _ _ _ -> Value.Null); body = Vm.No_body; filters = [] };
    p_recv = Value.Null;
    p_base = -1;
    p_n = 0;
    p_args = [] }

type Vm.machine += Running of seg

(* An exception that has already unwound every frame of the activation
   and only has to leave it. *)
exception Unwound of exn

let new_frame code this parent =
  { code;
    regs = Array.make code.c_stack unbound;
    this;
    ops = code.c_main;
    pc = 0;
    sp = code.c_nslots;
    blocks = no_block;
    parent }

(* Parameters from an argument list.  A length mismatch raises
   [Invalid_argument "List.iter2"]: only a directly applied function
   (e.g. a parameterised [main]) gets there with the wrong arity — call
   sites and method entries check arity first, with their own messages
   — and the text is kept stable for callers that match on it. *)
let fill regs param_slots args =
  let n_params = Array.length param_slots in
  let rec go i = function
    | [] -> if i <> n_params then invalid_arg "List.iter2"
    | v :: rest ->
      if i >= n_params then invalid_arg "List.iter2";
      Array.unsafe_set regs (Array.unsafe_get param_slots i) v;
      go (i + 1) rest
  in
  go 0 args

let arity_error mb n =
  Error
    ( Printf.sprintf "method %s.%s expects %d argument(s), got %d" mb.mb_cls
        mb.mb_name (Array.length mb.mb_params) n,
      mb.mb_line,
      mb.mb_col )

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Arguments [base .. base+n) as a list, head first. *)
let rec arg_list regs base i acc =
  if i < 0 then acc
  else arg_list regs base (i - 1) (Array.unsafe_get regs (base + i) :: acc)

(* The preemption opportunity of a call from [st.cur] (only performed
   under a preemptive policy).  The call's target and arguments are
   noted first, so the scheduler can copy this thread while it is
   suspended here. *)
let preempt st meth recv base n args =
  st.pending <- { p_meth = meth; p_recv = recv; p_base = base; p_n = n; p_args = args };
  Effect.perform Vm.Preempt;
  st.pending <- no_pending

(* The rest of the call accounting of {!Vm.call_filtered}: call count,
   depth (a StackOverflowError is raised in the caller). *)
let count_call vm =
  vm.Vm.calls <- vm.Vm.calls + 1;
  let d = vm.Vm.call_depth + 1 in
  vm.Vm.call_depth <- d;
  if d > vm.Vm.max_call_depth then begin
    vm.Vm.call_depth <- d - 1;
    Vm.throw vm "StackOverflowError" "call depth exceeded"
  end

(* An OCaml-level abort (step limit, deadline, program defect): every
   frame up to the activation root leaves — filters get [unwind], calls
   their depth accounting — and the exception leaves the activation. *)
let rec abort vm k ex =
  match k with
  | K_call fr ->
    vm.Vm.call_depth <- vm.Vm.call_depth - 1;
    abort vm fr.parent ex
  | K_fn fr -> abort vm fr.parent ex
  | K_filter fc -> (
    (* an [unwind] that raises replaces the exception, as a handler
       that raises would *)
    match fc.f.Vm.unwind vm fc.f_meth with
    | () -> abort vm fc.f_next ex
    | exception ex' -> abort vm fc.f_next ex')
  | K_root -> raise (Unwound ex)

(* Every function below is in tail position with respect to the one
   that calls it, so the native stack stays flat however deep the
   MiniLang call stack grows; [exec] returns only when the activation's
   outermost frame completes. *)
let rec exec st c vm fr regs ops pc sp : Value.t =
  let op = Array.unsafe_get ops pc in
  if !profiling then record_op op;
  (* tick fast path, inlined by hand (no flambda): one add, one store,
     one fused branch per instruction when no deadline is armed *)
  (let t = Array.unsafe_get ops (pc + 1) in
   if t <> 0 then begin
     let s0 = vm.Vm.steps in
     let s1 = s0 + t in
     vm.Vm.steps <- s1;
     if s1 > vm.Vm.step_limit || (vm.Vm.deadline_ns > 0 && s1 lsr 12 <> s0 lsr 12)
     then tick_slow vm s0 s1
   end);
  (* one dense match = one jump table *)
  match op with
  | 0 (* END *) ->
    let b = fr.blocks in
    if b == no_block then deliver st vm fr.parent Value.Null
    else block_end st c vm fr regs b
  | 1 (* CONST *) ->
    Array.unsafe_set regs sp
      (Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 2)));
    exec st c vm fr regs ops (pc + 3) (sp + 1)
  | 2 (* NULL *) ->
    Array.unsafe_set regs sp Value.Null;
    exec st c vm fr regs ops (pc + 2) (sp + 1)
  | 3 (* THIS *) ->
    Array.unsafe_set regs sp fr.this;
    exec st c vm fr regs ops (pc + 2) (sp + 1)
  | 4 (* LOAD *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    Array.unsafe_set regs sp v;
    exec st c vm fr regs ops (pc + 6) (sp + 1)
  | 5 (* FAIL *) ->
    raise (Error (c.c_strs.(ops.(pc + 2)), ops.(pc + 3), ops.(pc + 4)))
  | 6 (* NEG *) ->
    (match Array.unsafe_get regs (sp - 1) with
     | Value.Int n -> Array.unsafe_set regs (sp - 1) (vint (-n))
     | v -> err ops.(pc + 2) ops.(pc + 3) "negation of %s" (Value.type_name v));
    exec st c vm fr regs ops (pc + 4) sp
  | 7 (* NOT *) ->
    Array.unsafe_set regs (sp - 1)
      (vbool (not (Value.truthy (Array.unsafe_get regs (sp - 1)))));
    exec st c vm fr regs ops (pc + 2) sp
  | 8 (* BINOP *) ->
    let b = Array.unsafe_get regs (sp - 1) in
    let a = Array.unsafe_get regs (sp - 2) in
    Array.unsafe_set regs (sp - 2)
      (eval_binop vm (Array.unsafe_get ops (pc + 2)) a b
         (Array.unsafe_get ops (pc + 3))
         (Array.unsafe_get ops (pc + 4)));
    exec st c vm fr regs ops (pc + 5) (sp - 1)
  | 9 (* TRUTHY *) ->
    Array.unsafe_set regs (sp - 1)
      (vbool (Value.truthy (Array.unsafe_get regs (sp - 1))));
    exec st c vm fr regs ops (pc + 2) sp
  | 10 (* JMP *) -> exec st c vm fr regs ops (Array.unsafe_get ops (pc + 2)) sp
  | 11 (* JF *) ->
    if Value.truthy (Array.unsafe_get regs (sp - 1)) then
      exec st c vm fr regs ops (pc + 3) (sp - 1)
    else exec st c vm fr regs ops (Array.unsafe_get ops (pc + 2)) (sp - 1)
  | 12 (* GETFIELD *) ->
    Array.unsafe_set regs (sp - 1)
      (get_obj_field vm
         (Array.unsafe_get ops (pc + 3))
         (Array.unsafe_get ops (pc + 4))
         (Array.unsafe_get regs (sp - 1))
         (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 2))));
    exec st c vm fr regs ops (pc + 5) sp
  | 13 (* GETIDX *) ->
    let r =
      get_index vm
        (Array.unsafe_get ops (pc + 2))
        (Array.unsafe_get ops (pc + 3))
        (Array.unsafe_get regs (sp - 2))
        (Array.unsafe_get regs (sp - 1))
    in
    Array.unsafe_set regs (sp - 2) r;
    exec st c vm fr regs ops (pc + 4) (sp - 1)
  | 14 (* CALL *) ->
    let site = Array.unsafe_get c.c_calls (Array.unsafe_get ops (pc + 2)) in
    let n = Array.unsafe_get ops (pc + 3) in
    let base = sp - n in
    fr.ops <- ops;
    fr.pc <- pc;
    fr.sp <- sp;
    call_site st vm fr site (Array.unsafe_get regs (base - 1)) regs base n
  | 15 (* SUPER *) ->
    let midx = Array.unsafe_get ops (pc + 2) in
    let n = Array.unsafe_get ops (pc + 3) in
    fr.ops <- ops;
    fr.pc <- pc;
    fr.sp <- sp;
    call_regs st vm fr (Array.unsafe_get vm.Vm.meth_table midx) fr.this regs (sp - n) n
  | 16 (* SUPERCK *) ->
    let sup = c.c_strs.(ops.(pc + 2)) in
    let m = c.c_strs.(ops.(pc + 3)) in
    (match Vm.lookup_method vm sup m with
     | Some _ -> ()
     | None ->
       err ops.(pc + 5) ops.(pc + 6) "no method %s in superclasses of %s" m
         c.c_strs.(ops.(pc + 4)));
    exec st c vm fr regs ops (pc + 7) sp
  | 17 (* SUPERDYN *) -> (
    let sup = c.c_strs.(ops.(pc + 2)) in
    let m = c.c_strs.(ops.(pc + 3)) in
    let n = Array.unsafe_get ops (pc + 7) in
    match Vm.lookup_method vm sup m with
    | Some meth ->
      fr.ops <- ops;
      fr.pc <- pc;
      fr.sp <- sp;
      call_regs st vm fr meth fr.this regs (sp - n) n
    | None ->
      err ops.(pc + 5) ops.(pc + 6) "no method %s in superclasses of %s" m
        c.c_strs.(ops.(pc + 4)))
  | 18 (* FNCALL *) ->
    let site = Array.unsafe_get c.c_fns (Array.unsafe_get ops (pc + 2)) in
    let n = Array.unsafe_get ops (pc + 3) in
    let vargs = arg_list regs (sp - n) (n - 1) [] in
    fr.ops <- ops;
    fr.pc <- pc;
    fr.sp <- sp;
    fn_call st vm fr site vargs
  | 19 (* NEW *) ->
    let site = Array.unsafe_get c.c_news (Array.unsafe_get ops (pc + 2)) in
    let n = Array.unsafe_get ops (pc + 3) in
    let base = sp - n in
    let vargs = arg_list regs base (n - 1) [] in
    if not site.ns_known then begin
      Array.unsafe_set regs base
        (instantiate_dyn vm site.ns_line site.ns_col site.ns_cls vargs);
      exec st c vm fr regs ops (pc + 4) (base + 1)
    end
    else begin
      let id = Heap.alloc_layout vm.Vm.heap ~cls:site.ns_cls site.ns_layout in
      let recv = Value.Ref id in
      (* the arguments are in [vargs]: the new object takes the result
         register now, and [init]'s own result is discarded *)
      Array.unsafe_set regs base recv;
      if site.ns_init >= 0 then begin
        fr.ops <- ops;
        fr.pc <- pc;
        fr.sp <- sp;
        call_list st vm fr (Array.unsafe_get vm.Vm.meth_table site.ns_init) recv vargs
      end
      else
        match Vm.lookup_method vm site.ns_cls "init" with
        | Some meth ->
          (* an init added to this VM after instantiation *)
          fr.ops <- ops;
          fr.pc <- pc;
          fr.sp <- sp;
          call_list st vm fr meth recv vargs
        | None ->
          (match vargs with
           | [] -> ()
           | [ Value.Str m ] when site.ns_is_exc ->
             Heap.set_field vm.Vm.heap id "message" (Value.Str m)
           | _ ->
             err site.ns_line site.ns_col "class %s has no init method" site.ns_cls);
          exec st c vm fr regs ops (pc + 4) (base + 1)
    end
  | 20 (* ARRAY *) ->
    let n = Array.unsafe_get ops (pc + 2) in
    let base = sp - n in
    let a = Array.init n (fun i -> Array.unsafe_get regs (base + i)) in
    Array.unsafe_set regs base (Value.Ref (Heap.alloc vm.Vm.heap (Heap.Arr a)));
    exec st c vm fr regs ops (pc + 3) (base + 1)
  | 21 (* STORE *) ->
    Array.unsafe_set regs (Array.unsafe_get ops (pc + 2))
      (Array.unsafe_get regs (sp - 1));
    exec st c vm fr regs ops (pc + 3) (sp - 1)
  | 22 (* STORECHK *) ->
    let slot = Array.unsafe_get ops (pc + 2) in
    if Array.unsafe_get regs slot == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    Array.unsafe_set regs slot (Array.unsafe_get regs (sp - 1));
    exec st c vm fr regs ops (pc + 6) (sp - 1)
  | 23 (* SETFIELD *) ->
    set_obj_field vm ops.(pc + 3) ops.(pc + 4)
      (Array.unsafe_get regs (sp - 2))
      (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 2)))
      (Array.unsafe_get regs (sp - 1));
    exec st c vm fr regs ops (pc + 5) (sp - 2)
  | 24 (* SETIDX *) ->
    set_index vm ops.(pc + 2) ops.(pc + 3)
      (Array.unsafe_get regs (sp - 3))
      (Array.unsafe_get regs (sp - 2))
      (Array.unsafe_get regs (sp - 1));
    exec st c vm fr regs ops (pc + 4) (sp - 3)
  | 25 (* POP *) -> exec st c vm fr regs ops (pc + 2) (sp - 1)
  | 26 (* RET *) ->
    return_from st vm fr (Array.unsafe_get regs (sp - 1))
  | 27 (* RETNULL *) ->
    return_from st vm fr Value.Null
  | 28 (* THROW *) -> (
    match Array.unsafe_get regs (sp - 1) with
    | Value.Ref id as obj -> (
      match Heap.class_of vm.Vm.heap id with
      | Some cls when c.c_env.env_is_exc vm cls ->
        let message =
          match Heap.get_field vm.Vm.heap id "message" with
          | Some (Value.Str m) -> m
          | Some _ | None -> ""
        in
        raise_in st vm fr { Vm.exn_class = cls; message; exn_obj = obj }
      | Some cls -> err ops.(pc + 2) ops.(pc + 3) "throw of non-exception class %s" cls
      | None -> err ops.(pc + 2) ops.(pc + 3) "throw of an array")
    | v -> err ops.(pc + 2) ops.(pc + 3) "throw of %s" (Value.type_name v))
  | 29 (* BREAK *) -> flow_in st vm fr true
  | 30 (* CONT *) -> flow_in st vm fr false
  | 31 (* WHILE *) ->
    let ls = Array.unsafe_get c.c_loops (Array.unsafe_get ops (pc + 2)) in
    fr.blocks <-
      { bk = bk_while_cond; b_ops = ops; b_pc = pc; b_sp = sp; b_loop = ls;
        b_try = no_try; b_pending = ODone; b_next = fr.blocks };
    exec st c vm fr regs ls.ls_cond 0 sp
  | 32 (* FOR *) ->
    let ls = Array.unsafe_get c.c_loops (Array.unsafe_get ops (pc + 2)) in
    let b =
      { bk = bk_for_cond; b_ops = ops; b_pc = pc; b_sp = sp; b_loop = ls;
        b_try = no_try; b_pending = ODone; b_next = fr.blocks }
    in
    fr.blocks <- b;
    for_test st c vm fr regs b
  | 33 (* TRY *) ->
    let ts = Array.unsafe_get c.c_trys (Array.unsafe_get ops (pc + 2)) in
    fr.blocks <-
      { bk = bk_try; b_ops = ops; b_pc = pc; b_sp = sp; b_loop = no_loop;
        b_try = ts; b_pending = ODone; b_next = fr.blocks };
    exec st c vm fr regs ts.ts_body 0 sp
  | 34 (* TICKN *) -> exec st c vm fr regs ops (pc + 2) sp
  | 35 (* LOAD2 *) ->
    let v1 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v1 == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    Array.unsafe_set regs sp v1;
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    let v2 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 7)) in
    if v2 == unbound then
      err ops.(pc + 9) ops.(pc + 10) "unknown variable %s" c.c_strs.(ops.(pc + 8));
    Array.unsafe_set regs (sp + 1) v2;
    exec st c vm fr regs ops (pc + 11) (sp + 2)
  | 36 (* LOADC *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    Array.unsafe_set regs sp v;
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    Array.unsafe_set regs (sp + 1)
      (Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 7)));
    exec st c vm fr regs ops (pc + 8) (sp + 2)
  | 37 (* LOADF *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    Array.unsafe_set regs sp
      (get_obj_field vm ops.(pc + 8) ops.(pc + 9) v
         (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 7))));
    exec st c vm fr regs ops (pc + 10) (sp + 1)
  | 38 (* THISF *) ->
    let v = fr.this in
    let t2 = Array.unsafe_get ops (pc + 2) in
    if t2 <> 0 then tick_n vm t2;
    Array.unsafe_set regs sp
      (get_obj_field vm ops.(pc + 4) ops.(pc + 5) v
         (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 3))));
    exec st c vm fr regs ops (pc + 6) (sp + 1)
  | 39 (* CONSTB *) ->
    let b = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 2)) in
    let t2 = Array.unsafe_get ops (pc + 3) in
    if t2 <> 0 then tick_n vm t2;
    Array.unsafe_set regs (sp - 1)
      (eval_binop vm (Array.unsafe_get ops (pc + 4))
         (Array.unsafe_get regs (sp - 1))
         b ops.(pc + 5) ops.(pc + 6));
    exec st c vm fr regs ops (pc + 7) sp
  | 40 (* LOADB *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    Array.unsafe_set regs (sp - 1)
      (eval_binop vm (Array.unsafe_get ops (pc + 7))
         (Array.unsafe_get regs (sp - 1))
         v ops.(pc + 8) ops.(pc + 9));
    exec st c vm fr regs ops (pc + 10) sp
  | 41 (* LCB: load; const; binop — both operands stay in locals *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    let k = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 7)) in
    let t3 = Array.unsafe_get ops (pc + 8) in
    if t3 <> 0 then tick_n vm t3;
    Array.unsafe_set regs sp
      (eval_binop vm (Array.unsafe_get ops (pc + 9)) v k ops.(pc + 10)
         ops.(pc + 11));
    exec st c vm fr regs ops (pc + 12) (sp + 1)
  | 42 (* BJF: binop; jump-if-false — result branched, never pushed *) ->
    let b = Array.unsafe_get regs (sp - 1) in
    let a = Array.unsafe_get regs (sp - 2) in
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 2)) a b ops.(pc + 3)
        ops.(pc + 4)
    in
    let t2 = Array.unsafe_get ops (pc + 5) in
    if t2 <> 0 then tick_n vm t2;
    if Value.truthy r then exec st c vm fr regs ops (pc + 7) (sp - 2)
    else exec st c vm fr regs ops (Array.unsafe_get ops (pc + 6)) (sp - 2)
  | 43 (* BSC: binop; storechk — result stored, never pushed *) ->
    let b = Array.unsafe_get regs (sp - 1) in
    let a = Array.unsafe_get regs (sp - 2) in
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 2)) a b ops.(pc + 3)
        ops.(pc + 4)
    in
    let t2 = Array.unsafe_get ops (pc + 5) in
    if t2 <> 0 then tick_n vm t2;
    let slot = Array.unsafe_get ops (pc + 6) in
    if Array.unsafe_get regs slot == unbound then
      err ops.(pc + 8) ops.(pc + 9) "unknown variable %s" c.c_strs.(ops.(pc + 7));
    Array.unsafe_set regs slot r;
    exec st c vm fr regs ops (pc + 10) (sp - 2)
  | 44 (* CALLT: method call with [this] receiver (no receiver push) *) ->
    let site = Array.unsafe_get c.c_calls (Array.unsafe_get ops (pc + 2)) in
    let n = Array.unsafe_get ops (pc + 3) in
    fr.ops <- ops;
    fr.pc <- pc;
    fr.sp <- sp;
    call_site st vm fr site fr.this regs (sp - n) n
  | 45 (* SETFT: setfield on [this] *) ->
    set_obj_field vm ops.(pc + 3) ops.(pc + 4) fr.this
      (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 2)))
      (Array.unsafe_get regs (sp - 1));
    exec st c vm fr regs ops (pc + 5) (sp - 1)
  | 46 (* CALLP: call; pop — result discarded *) ->
    let site = Array.unsafe_get c.c_calls (Array.unsafe_get ops (pc + 2)) in
    let n = Array.unsafe_get ops (pc + 3) in
    let base = sp - n in
    fr.ops <- ops;
    fr.pc <- pc;
    fr.sp <- sp;
    call_site st vm fr site (Array.unsafe_get regs (base - 1)) regs base n
  | 47 (* FNCALLP: fncall; pop *) ->
    let site = Array.unsafe_get c.c_fns (Array.unsafe_get ops (pc + 2)) in
    let n = Array.unsafe_get ops (pc + 3) in
    let vargs = arg_list regs (sp - n) (n - 1) [] in
    fr.ops <- ops;
    fr.pc <- pc;
    fr.sp <- sp;
    fn_call st vm fr site vargs
  | 48 (* CALLTP: callt; pop *) ->
    let site = Array.unsafe_get c.c_calls (Array.unsafe_get ops (pc + 2)) in
    let n = Array.unsafe_get ops (pc + 3) in
    fr.ops <- ops;
    fr.pc <- pc;
    fr.sp <- sp;
    call_site st vm fr site fr.this regs (sp - n) n
  | 49 (* LCBS: load; const; binop; storechk — zero stack traffic *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    let k = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 7)) in
    let t3 = Array.unsafe_get ops (pc + 8) in
    if t3 <> 0 then tick_n vm t3;
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 9)) v k ops.(pc + 10)
        ops.(pc + 11)
    in
    let t4 = Array.unsafe_get ops (pc + 12) in
    if t4 <> 0 then tick_n vm t4;
    let dslot = Array.unsafe_get ops (pc + 13) in
    if Array.unsafe_get regs dslot == unbound then
      err ops.(pc + 15) ops.(pc + 16) "unknown variable %s"
        c.c_strs.(ops.(pc + 14));
    Array.unsafe_set regs dslot r;
    exec st c vm fr regs ops (pc + 17) sp
  | 50 (* LCBJF: load; const; binop; jump-if-false *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    let k = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 7)) in
    let t3 = Array.unsafe_get ops (pc + 8) in
    if t3 <> 0 then tick_n vm t3;
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 9)) v k ops.(pc + 10)
        ops.(pc + 11)
    in
    let t4 = Array.unsafe_get ops (pc + 12) in
    if t4 <> 0 then tick_n vm t4;
    if Value.truthy r then exec st c vm fr regs ops (pc + 14) sp
    else exec st c vm fr regs ops (Array.unsafe_get ops (pc + 13)) sp
  | 51 (* BRET: binop; ret *) ->
    let b = Array.unsafe_get regs (sp - 1) in
    let a = Array.unsafe_get regs (sp - 2) in
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 2)) a b ops.(pc + 3)
        ops.(pc + 4)
    in
    let t2 = Array.unsafe_get ops (pc + 5) in
    if t2 <> 0 then tick_n vm t2;
    return_from st vm fr r
  | 52 (* LRET: load; ret *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    return_from st vm fr v
  | 53 (* NRET: null; ret *) ->
    let t2 = Array.unsafe_get ops (pc + 2) in
    if t2 <> 0 then tick_n vm t2;
    return_from st vm fr Value.Null
  | 54 (* TFRET: thisf; ret *) ->
    let t2 = Array.unsafe_get ops (pc + 2) in
    if t2 <> 0 then tick_n vm t2;
    let v =
      get_obj_field vm ops.(pc + 4) ops.(pc + 5) fr.this
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 3)))
    in
    let t3 = Array.unsafe_get ops (pc + 6) in
    if t3 <> 0 then tick_n vm t3;
    return_from st vm fr v
  | 55 (* LCBR: load; const; binop; ret *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    let k = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 7)) in
    let t3 = Array.unsafe_get ops (pc + 8) in
    if t3 <> 0 then tick_n vm t3;
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 9)) v k ops.(pc + 10)
        ops.(pc + 11)
    in
    let t4 = Array.unsafe_get ops (pc + 12) in
    if t4 <> 0 then tick_n vm t4;
    return_from st vm fr r
  | 56 (* LLB: load; load; binop *) ->
    let v1 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v1 == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    let v2 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 7)) in
    if v2 == unbound then
      err ops.(pc + 9) ops.(pc + 10) "unknown variable %s"
        c.c_strs.(ops.(pc + 8));
    let t3 = Array.unsafe_get ops (pc + 11) in
    if t3 <> 0 then tick_n vm t3;
    Array.unsafe_set regs sp
      (eval_binop vm (Array.unsafe_get ops (pc + 12)) v1 v2 ops.(pc + 13)
         ops.(pc + 14));
    exec st c vm fr regs ops (pc + 15) (sp + 1)
  | 57 (* LLBS: load; load; binop; storechk *) ->
    let v1 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v1 == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    let v2 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 7)) in
    if v2 == unbound then
      err ops.(pc + 9) ops.(pc + 10) "unknown variable %s"
        c.c_strs.(ops.(pc + 8));
    let t3 = Array.unsafe_get ops (pc + 11) in
    if t3 <> 0 then tick_n vm t3;
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 12)) v1 v2 ops.(pc + 13)
        ops.(pc + 14)
    in
    let t4 = Array.unsafe_get ops (pc + 15) in
    if t4 <> 0 then tick_n vm t4;
    let dslot = Array.unsafe_get ops (pc + 16) in
    if Array.unsafe_get regs dslot == unbound then
      err ops.(pc + 18) ops.(pc + 19) "unknown variable %s"
        c.c_strs.(ops.(pc + 17));
    Array.unsafe_set regs dslot r;
    exec st c vm fr regs ops (pc + 20) sp
  | 58 (* LLBJF: load; load; binop; jump-if-false *) ->
    let v1 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v1 == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    let v2 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 7)) in
    if v2 == unbound then
      err ops.(pc + 9) ops.(pc + 10) "unknown variable %s"
        c.c_strs.(ops.(pc + 8));
    let t3 = Array.unsafe_get ops (pc + 11) in
    if t3 <> 0 then tick_n vm t3;
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 12)) v1 v2 ops.(pc + 13)
        ops.(pc + 14)
    in
    let t4 = Array.unsafe_get ops (pc + 15) in
    if t4 <> 0 then tick_n vm t4;
    if Value.truthy r then exec st c vm fr regs ops (pc + 17) sp
    else exec st c vm fr regs ops (Array.unsafe_get ops (pc + 16)) sp
  | 59 (* LLBR: load; load; binop; ret *) ->
    let v1 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v1 == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    let v2 = Array.unsafe_get regs (Array.unsafe_get ops (pc + 7)) in
    if v2 == unbound then
      err ops.(pc + 9) ops.(pc + 10) "unknown variable %s"
        c.c_strs.(ops.(pc + 8));
    let t3 = Array.unsafe_get ops (pc + 11) in
    if t3 <> 0 then tick_n vm t3;
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 12)) v1 v2 ops.(pc + 13)
        ops.(pc + 14)
    in
    let t4 = Array.unsafe_get ops (pc + 15) in
    if t4 <> 0 then tick_n vm t4;
    return_from st vm fr r
  | 60 (* CRET: const; ret *) ->
    let v = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 2)) in
    let t2 = Array.unsafe_get ops (pc + 3) in
    if t2 <> 0 then tick_n vm t2;
    return_from st vm fr v
  | 61 (* TFCB: thisf; const; binop *) ->
    let t2 = Array.unsafe_get ops (pc + 2) in
    if t2 <> 0 then tick_n vm t2;
    let v =
      get_obj_field vm ops.(pc + 4) ops.(pc + 5) fr.this
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 3)))
    in
    let t3 = Array.unsafe_get ops (pc + 6) in
    if t3 <> 0 then tick_n vm t3;
    let k = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 7)) in
    let t4 = Array.unsafe_get ops (pc + 8) in
    if t4 <> 0 then tick_n vm t4;
    Array.unsafe_set regs sp
      (eval_binop vm (Array.unsafe_get ops (pc + 9)) v k ops.(pc + 10)
         ops.(pc + 11));
    exec st c vm fr regs ops (pc + 12) (sp + 1)
  | 62 (* FNCALLTF: fncall whose last argument is this.f *) ->
    let t2 = Array.unsafe_get ops (pc + 2) in
    if t2 <> 0 then tick_n vm t2;
    let v =
      get_obj_field vm ops.(pc + 4) ops.(pc + 5) fr.this
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 3)))
    in
    let t3 = Array.unsafe_get ops (pc + 8) in
    if t3 <> 0 then tick_n vm t3;
    let site = Array.unsafe_get c.c_fns (Array.unsafe_get ops (pc + 6)) in
    let n = Array.unsafe_get ops (pc + 7) in
    let base = sp - (n - 1) in
    let vargs = arg_list regs base (n - 2) [ v ] in
    fr.ops <- ops;
    fr.pc <- pc;
    fr.sp <- sp;
    fn_call st vm fr site vargs
  | 63 (* LSETFT: load; setfield-on-this *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    let t2 = Array.unsafe_get ops (pc + 6) in
    if t2 <> 0 then tick_n vm t2;
    set_obj_field vm ops.(pc + 8) ops.(pc + 9) fr.this
      (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 7)))
      v;
    exec st c vm fr regs ops (pc + 10) sp
  | 64 (* CBSETFT: constb; setfield-on-this *) ->
    let a = Array.unsafe_get regs (sp - 1) in
    let k = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 2)) in
    let t2 = Array.unsafe_get ops (pc + 3) in
    if t2 <> 0 then tick_n vm t2;
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 4)) a k ops.(pc + 5)
        ops.(pc + 6)
    in
    let t3 = Array.unsafe_get ops (pc + 7) in
    if t3 <> 0 then tick_n vm t3;
    set_obj_field vm ops.(pc + 9) ops.(pc + 10) fr.this
      (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 8)))
      r;
    exec st c vm fr regs ops (pc + 11) (sp - 1)
  | 65 (* TRET: this; ret *) ->
    let t2 = Array.unsafe_get ops (pc + 2) in
    if t2 <> 0 then tick_n vm t2;
    return_from st vm fr fr.this
  | 66 (* CSETFT: const; setfield-on-this *) ->
    let v = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 2)) in
    let t2 = Array.unsafe_get ops (pc + 3) in
    if t2 <> 0 then tick_n vm t2;
    set_obj_field vm ops.(pc + 5) ops.(pc + 6) fr.this
      (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 4)))
      v;
    exec st c vm fr regs ops (pc + 7) sp
  | 67 (* TFCBJF: thisf; const; binop; jump-if-false *) ->
    let t2 = Array.unsafe_get ops (pc + 2) in
    if t2 <> 0 then tick_n vm t2;
    let v =
      get_obj_field vm ops.(pc + 4) ops.(pc + 5) fr.this
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 3)))
    in
    let t3 = Array.unsafe_get ops (pc + 6) in
    if t3 <> 0 then tick_n vm t3;
    let k = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 7)) in
    let t4 = Array.unsafe_get ops (pc + 8) in
    if t4 <> 0 then tick_n vm t4;
    let r =
      eval_binop vm (Array.unsafe_get ops (pc + 9)) v k ops.(pc + 10)
        ops.(pc + 11)
    in
    let t5 = Array.unsafe_get ops (pc + 12) in
    if t5 <> 0 then tick_n vm t5;
    if Value.truthy r then exec st c vm fr regs ops (pc + 14) sp
    else exec st c vm fr regs ops (Array.unsafe_get ops (pc + 13)) sp
  | _ (* 68 FNCALLTF2: fncall, last two arguments this.f1 / this.f2 *) ->
    let t2 = Array.unsafe_get ops (pc + 2) in
    if t2 <> 0 then tick_n vm t2;
    let v1 =
      get_obj_field vm ops.(pc + 4) ops.(pc + 5) fr.this
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 3)))
    in
    let t3 = Array.unsafe_get ops (pc + 6) in
    if t3 <> 0 then tick_n vm t3;
    let t4 = Array.unsafe_get ops (pc + 7) in
    if t4 <> 0 then tick_n vm t4;
    let v2 =
      get_obj_field vm ops.(pc + 9) ops.(pc + 10) fr.this
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 8)))
    in
    let t5 = Array.unsafe_get ops (pc + 13) in
    if t5 <> 0 then tick_n vm t5;
    let site = Array.unsafe_get c.c_fns (Array.unsafe_get ops (pc + 11)) in
    let n = Array.unsafe_get ops (pc + 12) in
    let base = sp - (n - 2) in
    let vargs = arg_list regs base (n - 3) [ v1; v2 ] in
    fr.ops <- ops;
    fr.pc <- pc;
    fr.sp <- sp;
    fn_call st vm fr site vargs

(* --- calls -------------------------------------------------------- *)

(* Method dispatch through a site's inline cache — shared by CALL and
   its fused variants (CALLT / CALLP / CALLTP).  The caller's state is
   already saved in [fr]. *)
and call_site st vm fr (site : call_site) recv regs base n =
  match recv with
  | Value.Ref id -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Obj { cls; _ } ->
      let ccls, cidx = !(site.cs_cache) in
      if cls == ccls then begin
        vm.Vm.ic_hits <- vm.Vm.ic_hits + 1;
        call_regs st vm fr (Array.unsafe_get vm.Vm.meth_table cidx) recv regs base n
      end
      else begin
        vm.Vm.ic_misses <- vm.Vm.ic_misses + 1;
        let idx = site.cs_resolve cls in
        if idx >= 0 then begin
          site.cs_cache := (cls, idx);
          call_regs st vm fr (Array.unsafe_get vm.Vm.meth_table idx) recv regs base n
        end
        else
          (* receiver class or method outside the image *)
          call_regs st vm fr (Vm.find_method vm cls site.cs_name) recv regs base n
      end
    | Heap.Arr _ ->
      Vm.throw vm "UnsupportedOperationException"
        ("method call on array: " ^ site.cs_name))
  | Value.Null ->
    Vm.throw vm "NullPointerException" ("call of " ^ site.cs_name ^ " on null")
  | Value.Int _ | Value.Bool _ | Value.Str _ ->
    Vm.throw vm "UnsupportedOperationException"
      (Printf.sprintf "call of %s on %s" site.cs_name (Value.type_name recv))

(* A method call whose arguments are registers [base .. base+n) of the
   caller: an unfiltered compiled callee gets them copied straight into
   its frame, anything else sees the argument list. *)
and call_regs st vm fr (meth : Vm.meth) recv regs base n =
  if vm.Vm.preempt_flag then preempt st meth recv base n [];
  enter_regs st vm fr meth recv regs base n

and enter_regs st vm fr (meth : Vm.meth) recv regs base n =
  count_call vm;
  match meth.Vm.filters, meth.Vm.body with
  | [], Method_body mb when Array.length mb.mb_params = n ->
    let code = mb.mb_code in
    let cregs = Array.make code.c_stack unbound in
    let params = mb.mb_params in
    for i = 0 to n - 1 do
      Array.unsafe_set cregs (Array.unsafe_get params i)
        (Array.unsafe_get regs (base + i))
    done;
    let callee =
      { code; regs = cregs; this = recv; ops = code.c_main; pc = 0;
        sp = code.c_nslots; blocks = no_block; parent = K_call fr }
    in
    st.cur <- callee;
    exec st code vm callee cregs code.c_main 0 code.c_nslots
  | filters, _ -> run_pres st vm (K_call fr) meth recv (arg_list regs base (n - 1) []) filters

and call_list st vm fr (meth : Vm.meth) recv args =
  if vm.Vm.preempt_flag then preempt st meth recv (-1) 0 args;
  enter_list st vm fr meth recv args

and enter_list st vm fr (meth : Vm.meth) recv args =
  count_call vm;
  run_pres st vm (K_call fr) meth recv args meth.Vm.filters

(* The filter chain, outermost first: each [pre] that proceeds leaves a
   [K_filter] continuation owing its [post]. *)
and run_pres st vm k meth recv args = function
  | [] -> enter st vm k meth recv args
  | (f : Vm.filter) :: rest -> (
    st.at <- k;
    match f.Vm.pre vm meth recv args with
    | Vm.Proceed ->
      run_pres st vm
        (K_filter { f; f_meth = meth; f_recv = recv; f_args = args; f_next = k })
        meth recv args rest
    | Vm.Pre_return v -> deliver st vm k v
    | Vm.Pre_raise e -> deliver_raise st vm k e
    | exception ex -> fail st vm k ex)

and enter st vm k (meth : Vm.meth) recv args =
  match meth.Vm.body with
  | Method_body mb ->
    let n = List.length args in
    if n <> Array.length mb.mb_params then abort vm k (arity_error mb n)
    else begin
      let code = mb.mb_code in
      let callee = new_frame code recv k in
      fill callee.regs mb.mb_params args;
      st.cur <- callee;
      exec st code vm callee callee.regs code.c_main 0 code.c_nslots
    end
  | _ -> (
    match meth.Vm.impl vm recv args with
    | v -> deliver st vm k v
    | exception ex -> fail st vm k ex)

(* FNCALL and its fused variants.  A registered hook overrides the
   target (woven code calls the engine through hooks); a user function
   pushes a frame; a builtin runs natively.  The caller's state is
   already saved in [fr]. *)
and fn_call st vm fr (site : fn_site) vargs =
  match
    if Hashtbl.length vm.Vm.hooks = 0 then None else Vm.find_hook vm site.fs_name
  with
  | Some hook ->
    st.at <- K_fn fr;
    resume st vm fr (hook vm vargs)
  | None -> (
    match site.fs_target with
    | Compiled fb ->
      let code = fb.fb_code in
      let callee = new_frame code Value.Null (K_fn fr) in
      fill callee.regs fb.fb_params vargs;
      st.cur <- callee;
      exec st code vm callee callee.regs code.c_main 0 code.c_nslots
    | Native f -> resume st vm fr (f vm vargs))

(* A call made by [fr] completed with [v]: place it as the suspended
   call instruction prescribes and continue after it. *)
and resume st vm fr v =
  let ops = fr.ops and pc = fr.pc and sp = fr.sp and regs = fr.regs in
  let c = fr.code in
  match Array.unsafe_get ops pc with
  | 14 (* CALL *) ->
    let base = sp - Array.unsafe_get ops (pc + 3) in
    Array.unsafe_set regs (base - 1) v;
    exec st c vm fr regs ops (pc + 4) base
  | 15 (* SUPER *) | 18 (* FNCALL *) | 44 (* CALLT *) ->
    let base = sp - Array.unsafe_get ops (pc + 3) in
    Array.unsafe_set regs base v;
    exec st c vm fr regs ops (pc + 4) (base + 1)
  | 19 (* NEW: the new object is already in place *) ->
    let base = sp - Array.unsafe_get ops (pc + 3) in
    exec st c vm fr regs ops (pc + 4) (base + 1)
  | 46 (* CALLP *) ->
    let base = sp - Array.unsafe_get ops (pc + 3) in
    let t2 = Array.unsafe_get ops (pc + 4) in
    if t2 <> 0 then tick_n vm t2;
    exec st c vm fr regs ops (pc + 5) (base - 1)
  | 47 (* FNCALLP *) | 48 (* CALLTP *) ->
    let base = sp - Array.unsafe_get ops (pc + 3) in
    let t2 = Array.unsafe_get ops (pc + 4) in
    if t2 <> 0 then tick_n vm t2;
    exec st c vm fr regs ops (pc + 5) base
  | 17 (* SUPERDYN *) ->
    let base = sp - Array.unsafe_get ops (pc + 7) in
    Array.unsafe_set regs base v;
    exec st c vm fr regs ops (pc + 8) (base + 1)
  | 62 (* FNCALLTF *) ->
    let base = sp - (Array.unsafe_get ops (pc + 7) - 1) in
    Array.unsafe_set regs base v;
    exec st c vm fr regs ops (pc + 9) (base + 1)
  | 68 (* FNCALLTF2 *) ->
    let base = sp - (Array.unsafe_get ops (pc + 12) - 2) in
    Array.unsafe_set regs base v;
    exec st c vm fr regs ops (pc + 14) (base + 1)
  | 0 (* END: the trampoline under a thread's root call (see {!invoke}) *) ->
    deliver st vm fr.parent v
  | op -> invalid_arg ("Exec.resume: not a call instruction: " ^ op_names.(op))

(* --- completion ---------------------------------------------------- *)

(* Normal completion of whatever [k] is waiting for. *)
and deliver st vm k v =
  match k with
  | K_call fr ->
    vm.Vm.call_depth <- vm.Vm.call_depth - 1;
    st.cur <- fr;
    resume st vm fr v
  | K_fn fr ->
    st.cur <- fr;
    resume st vm fr v
  | K_filter fc -> (
    match fc.f.Vm.post vm fc.f_meth fc.f_recv fc.f_args (Ok v) with
    | Vm.Pass -> deliver st vm fc.f_next v
    | Vm.Post_return v' -> deliver st vm fc.f_next v'
    | Vm.Post_raise e -> deliver_raise st vm fc.f_next e
    | exception ex -> fail st vm fc.f_next ex)
  | K_root -> v

(* Exceptional completion (a MiniLang exception) of [k]. *)
and deliver_raise st vm k e =
  match k with
  | K_call fr ->
    vm.Vm.call_depth <- vm.Vm.call_depth - 1;
    st.cur <- fr;
    raise_in st vm fr e
  | K_fn fr ->
    st.cur <- fr;
    raise_in st vm fr e
  | K_filter fc -> (
    match fc.f.Vm.post vm fc.f_meth fc.f_recv fc.f_args (Error e) with
    | Vm.Pass -> deliver_raise st vm fc.f_next e
    | Vm.Post_return v -> deliver st vm fc.f_next v
    | Vm.Post_raise e' -> deliver_raise st vm fc.f_next e'
    | exception ex -> fail st vm fc.f_next ex)
  | K_root -> raise (Unwound (Vm.Mini_raise e))

(* Loop control leaving a frame: filters see it as an abort ([unwind],
   no [post]), callers continue unwinding to their innermost loop. *)
and flow_out st vm k brk =
  match k with
  | K_call fr ->
    vm.Vm.call_depth <- vm.Vm.call_depth - 1;
    st.cur <- fr;
    flow_in st vm fr brk
  | K_fn fr ->
    st.cur <- fr;
    flow_in st vm fr brk
  | K_filter fc -> (
    match fc.f.Vm.unwind vm fc.f_meth with
    | () -> flow_out st vm fc.f_next brk
    | exception ex -> fail st vm fc.f_next ex)
  | K_root -> raise (Unwound (if brk then Break_loop else Continue_loop))

(* An OCaml exception raised by native code (a filter, a native method,
   a hook) while [k] was waiting for it. *)
and fail st vm k ex =
  match ex with
  | Vm.Mini_raise e -> deliver_raise st vm k e
  | Break_loop -> flow_out st vm k true
  | Continue_loop -> flow_out st vm k false
  | _ -> abort vm k ex

(* --- unwinding within a frame -------------------------------------- *)

(* [return v] in [fr]: pending [finally] blocks run first. *)
and return_from st vm fr v =
  let b = fr.blocks in
  if b == no_block then deliver st vm fr.parent v
  else if (b.bk = bk_try || b.bk = bk_catch) && Array.length b.b_try.ts_fin > 0
  then begin
    b.bk <- bk_fin;
    b.b_pending <- ORet v;
    exec st fr.code vm fr fr.regs b.b_try.ts_fin 0 b.b_sp
  end
  else begin
    (* a loop, a try without finally, or a return out of a finally
       (which supersedes its pending outcome) *)
    fr.blocks <- b.b_next;
    return_from st vm fr v
  end

(* A MiniLang exception in [fr]: the innermost try whose handler
   matches catches it; [finally] blocks on the way run with it
   pending. *)
and raise_in st vm fr e =
  let b = fr.blocks in
  if b == no_block then deliver_raise st vm fr.parent e
  else if b.bk = bk_try then begin
    let catches = b.b_try.ts_catches in
    let n = Array.length catches in
    let rec find i =
      if i >= n then pending_fin st vm fr b (ORaise e)
      else begin
        let hc, slot, cbody = Array.unsafe_get catches i in
        if fr.code.c_env.env_exn_matches vm e hc then begin
          Array.unsafe_set fr.regs slot e.Vm.exn_obj;
          b.bk <- bk_catch;
          exec st fr.code vm fr fr.regs cbody 0 b.b_sp
        end
        else find (i + 1)
      end
    in
    find 0
  end
  else if b.bk = bk_catch then pending_fin st vm fr b (ORaise e)
  else begin
    fr.blocks <- b.b_next;
    raise_in st vm fr e
  end

(* [break] ([brk]) or [continue] in [fr]. *)
and flow_in st vm fr brk =
  let b = fr.blocks in
  if b == no_block then flow_out st vm fr.parent brk
  else begin
    let k = b.bk in
    if k <= bk_for_update then begin
      if brk then leave_block st fr.code vm fr fr.regs b
      else if k = bk_while_body then begin
        b.bk <- bk_while_cond;
        exec st fr.code vm fr fr.regs b.b_loop.ls_cond 0 b.b_sp
      end
      else if k = bk_for_body then for_next st fr.code vm fr fr.regs b
      else begin
        (* only a loop body catches [continue]: from a condition or an
           update it leaves the loop *)
        fr.blocks <- b.b_next;
        flow_in st vm fr brk
      end
    end
    else if k = bk_fin then begin
      fr.blocks <- b.b_next;
      flow_in st vm fr brk
    end
    else pending_fin st vm fr b (if brk then OBreak else OCont)
  end

(* A try or catch block [b] completes abruptly with [o]: run its
   [finally] with [o] pending, or pass [o] on. *)
and pending_fin st vm fr b o =
  if Array.length b.b_try.ts_fin > 0 then begin
    b.bk <- bk_fin;
    b.b_pending <- o;
    exec st fr.code vm fr fr.regs b.b_try.ts_fin 0 b.b_sp
  end
  else finish_block st vm fr b o

(* The statement owning block [b] is over with outcome [o]. *)
and finish_block st vm fr b o =
  fr.blocks <- b.b_next;
  match o with
  | ODone -> exec st fr.code vm fr fr.regs b.b_ops (b.b_pc + 3) b.b_sp
  | ORet v -> return_from st vm fr v
  | ORaise e -> raise_in st vm fr e
  | OBreak -> flow_in st vm fr true
  | OCont -> flow_in st vm fr false

(* END of a sub-block: the enclosing loop or try statement decides. *)
and block_end st c vm fr regs b =
  match b.bk with
  | 0 (* while condition *) ->
    if Value.truthy (Array.unsafe_get regs b.b_sp) then begin
      b.bk <- bk_while_body;
      exec st c vm fr regs b.b_loop.ls_body 0 b.b_sp
    end
    else leave_block st c vm fr regs b
  | 1 (* while body *) ->
    b.bk <- bk_while_cond;
    exec st c vm fr regs b.b_loop.ls_cond 0 b.b_sp
  | 2 (* for condition *) ->
    if Value.truthy (Array.unsafe_get regs b.b_sp) then begin
      b.bk <- bk_for_body;
      exec st c vm fr regs b.b_loop.ls_body 0 b.b_sp
    end
    else leave_block st c vm fr regs b
  | 3 (* for body *) -> for_next st c vm fr regs b
  | 4 (* for update *) -> for_test st c vm fr regs b
  | 7 (* finally *) -> finish_block st vm fr b b.b_pending
  | _ (* try body or handler completed normally *) ->
    if Array.length b.b_try.ts_fin > 0 then begin
      b.bk <- bk_fin;
      b.b_pending <- ODone;
      exec st c vm fr regs b.b_try.ts_fin 0 b.b_sp
    end
    else leave_block st c vm fr regs b

(* Normal completion of the statement that owns block [b]. *)
and leave_block st c vm fr regs b =
  fr.blocks <- b.b_next;
  exec st c vm fr regs b.b_ops (b.b_pc + 3) b.b_sp

(* After a for body: the update, if any, then the condition. *)
and for_next st c vm fr regs b =
  if Array.length b.b_loop.ls_update = 0 then for_test st c vm fr regs b
  else begin
    b.bk <- bk_for_update;
    exec st c vm fr regs b.b_loop.ls_update 0 b.b_sp
  end

(* A for condition; an absent one is always true. *)
and for_test st c vm fr regs b =
  if Array.length b.b_loop.ls_cond = 0 then begin
    b.bk <- bk_for_body;
    exec st c vm fr regs b.b_loop.ls_body 0 b.b_sp
  end
  else begin
    b.bk <- bk_for_cond;
    exec st c vm fr regs b.b_loop.ls_cond 0 b.b_sp
  end

(* ------------------------------------------------------------------ *)
(* Activations                                                         *)
(* ------------------------------------------------------------------ *)

(* Runs [k] — the start or a resumption of activation [st] — and routes
   what native code raised into the frame running at the time. *)
let rec drive st vm k =
  match k st with
  | v -> v
  | exception Unwound ex -> raise ex
  | exception Vm.Mini_raise e -> drive st vm (fun st -> raise_in st vm st.cur e)
  | exception Break_loop -> drive st vm (fun st -> flow_in st vm st.cur true)
  | exception Continue_loop -> drive st vm (fun st -> flow_in st vm st.cur false)
  | exception ex -> drive st vm (fun st -> abort vm (K_fn st.cur) ex)

(* Root enumeration scans [this] and the slot prefix of every frame in
   place.  Stack temporaries are not roots — see the module comment. *)
let mark_frame mark fr =
  mark fr.this;
  let regs = fr.regs in
  for i = 0 to fr.code.c_nslots - 1 do
    mark (Array.unsafe_get regs i)
  done

let rec mark_cont mark = function
  | K_root -> ()
  | K_call fr | K_fn fr ->
    mark_frame mark fr;
    mark_cont mark fr.parent
  | K_filter fc -> mark_cont mark fc.f_next

(* Removal is by physical identity, not a blind head pop: under the
   thread scheduler the root list interleaves activations of several
   MiniLang threads, so this one's entry need not be the head when it
   exits. *)
let pop_frame_roots vm roots =
  match vm.Vm.frame_roots with
  | r :: rest when r == roots -> vm.Vm.frame_roots <- rest
  | l -> vm.Vm.frame_roots <- List.filter (fun r -> r != roots) l

(* One activation whose innermost frame is [fr]: registered for GC root
   enumeration and as the VM's running machine while it runs. *)
let activate vm fr start =
  let st = { cur = fr; prev = vm.Vm.machine; at = K_root; pending = no_pending } in
  let roots mark =
    mark_frame mark st.cur;
    mark_cont mark st.cur.parent
  in
  vm.Vm.frame_roots <- roots :: vm.Vm.frame_roots;
  vm.Vm.machine <- Running st;
  match drive st vm start with
  | v ->
    pop_frame_roots vm roots;
    vm.Vm.machine <- st.prev;
    v
  | exception e ->
    pop_frame_roots vm roots;
    vm.Vm.machine <- st.prev;
    raise e

let run_root code vm this param_slots args =
  let fr = new_frame code this K_root in
  fill fr.regs param_slots args;
  activate vm fr (fun st -> exec st code vm fr fr.regs code.c_main 0 code.c_nslots)

let method_impl mb : Vm.impl =
 fun vm this args ->
  let n = List.length args in
  if n <> Array.length mb.mb_params then raise (arity_error mb n);
  run_root mb.mb_code vm this mb.mb_params args

(* Stands in for a function body until the image fills it in. *)
let placeholder_code =
  { c_env = { env_is_exc = (fun _ _ -> false); env_exn_matches = (fun _ _ _ -> false) };
    c_main = [| op_end; 0 |];
    c_consts = [||];
    c_strs = [||];
    c_calls = [||];
    c_fns = [||];
    c_news = [||];
    c_loops = [||];
    c_trys = [||];
    c_nslots = 0;
    c_stack = 1 }

let new_fbody () = { fb_code = placeholder_code; fb_params = [||] }

let function_impl fb vm args = run_root fb.fb_code vm Value.Null fb.fb_params args

(* The frame under a thread's root call: suspended at an END, which
   [resume] reads as "return the call's value from the activation".  It
   has no slots and never executes an instruction. *)
let root_code = { placeholder_code with c_stack = 0 }

(* A thread's root call [recv.mname(args)]: dispatched as {!Vm.invoke}
   does, with the same errors, but made from a trampoline frame, so the
   whole thread — preemption opportunity and filters of the root call
   included — runs as frames of one activation. *)
let invoke vm recv mname args =
  match recv with
  | Value.Ref id -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Obj { cls; _ } ->
      let meth = Vm.find_method vm cls mname in
      let fr = new_frame root_code Value.Null K_root in
      activate vm fr (fun st -> call_list st vm fr meth recv args)
    | Heap.Arr _ ->
      Vm.throw vm "UnsupportedOperationException" ("method call on array: " ^ mname))
  | Value.Null -> Vm.throw vm "NullPointerException" ("call of " ^ mname ^ " on null")
  | Value.Int _ | Value.Bool _ | Value.Str _ ->
    Vm.throw vm "UnsupportedOperationException"
      (Printf.sprintf "call of %s on %s" mname (Value.type_name recv))

(* ------------------------------------------------------------------ *)
(* Capturing and resuming continuations                                *)
(* ------------------------------------------------------------------ *)

type resumable = cont

let rec copy_blocks b =
  if b == no_block then no_block else { b with b_next = copy_blocks b.b_next }

let rec copy_cont = function
  | K_root -> K_root
  | K_call fr -> K_call (copy_frame fr)
  | K_fn fr -> K_fn (copy_frame fr)
  | K_filter fc -> K_filter { fc with f_next = copy_cont fc.f_next }

and copy_frame fr =
  { fr with
    regs = Array.copy fr.regs;
    blocks = copy_blocks fr.blocks;
    parent = copy_cont fr.parent }

let capture vm =
  match vm.Vm.machine with
  | Running { prev = Vm.No_machine; at = (K_call _ | K_fn _ | K_filter _) as k; _ } ->
    Some (copy_cont k)
  | _ -> None

let rec innermost = function
  | K_call fr | K_fn fr -> Some fr
  | K_filter fc -> innermost fc.f_next
  | K_root -> None

(* The copy is a whole continuation of its thread's outermost
   activation; the scheduler's fork takes the frames it was copied from
   out of the GC root set while the copy runs. *)
let resume_raise vm k e =
  match innermost k with
  | None -> raise (Vm.Mini_raise e)
  | Some fr -> activate vm fr (fun st -> deliver_raise st vm k e)

(* A thread suspended by the scheduler: its one activation, frozen
   while the thread is.  The frames are copied when a copy resumes. *)
type suspended = seg

let at_fncall fr =
  match fr.ops.(fr.pc) with
  | 18 (* FNCALL *) | 47 (* FNCALLP *) | 62 (* FNCALLTF *) | 68 (* FNCALLTF2 *) -> true
  | _ -> false

let suspended m ~in_call =
  match m with
  | Running ({ prev = Vm.No_machine; _ } as st) ->
    let pending = st.pending != no_pending in
    if in_call then if pending then Some st else None
    else if (not pending) && at_fncall st.cur then Some st
    else None
  | _ -> None

let continue_call vm s =
  let fr = copy_frame s.cur in
  let { p_meth = meth; p_recv = recv; p_base = base; p_n = n; p_args = args } = s.pending in
  activate vm fr (fun st ->
      if base >= 0 then enter_regs st vm fr meth recv fr.regs base n
      else enter_list st vm fr meth recv args)

let continue_with vm s outcome =
  let fr = copy_frame s.cur in
  activate vm fr (fun st ->
      match outcome with
      | Ok v -> resume st vm fr v
      | Error e -> raise_in st vm fr e)
