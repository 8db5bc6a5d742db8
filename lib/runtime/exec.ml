(* Flat-bytecode dispatch loop: the execution engine behind
   [Compile.image].

   A method body is an [int array] of variable-width instructions.  Every
   instruction is laid out as [op; ticks; operands...]: [ticks] is the
   number of AST nodes that semantically *start* at this instruction, so
   {!Vm.tick}-equivalent accounting is batched ([tick_n]) while keeping
   [Vm.steps] — observed by the metrics harvest, the step limit and the
   goldens — equal to one tick per evaluated expression or executed
   statement, at every instruction boundary.

   Control flow uses two channels:

   - [return] is a status code (0 = fell off the end, 1 = returned with
     the value in [frame.ret]) threaded through nested block executions —
     the common case pays no OCaml exception;
   - [break]/[continue] are OCaml exceptions ({!Break_loop},
     {!Continue_loop}) because a [break] or [continue] outside any loop
     of its body unwinds *across* MiniLang call frames into the
     innermost loop of a caller, and that (degenerate but observable)
     behavior is part of the language as the goldens pin it;
   - MiniLang exceptions remain {!Vm.Mini_raise}; program defects raise
     {!Error} with the source position, converted to
     [Compile.Runtime_error] at the method boundary (this module cannot
     see the AST).

   Loops and try/catch/finally execute nested sub-blocks (separate
   instruction arrays referenced through site records) rather than
   intra-array jumps, so handler scopes map directly onto OCaml handler
   scopes.  Straight-line control flow (if/and/or) uses jumps within one
   array.

   The operand stack shares one [Value.t array] with the local-variable
   slots: registers [0, n_slots) are the slots, [n_slots, stack_size)
   the expression stack.  GC root enumeration marks [this] and the slot
   prefix only — stack temporaries are deliberately *not* roots: a
   frame's roots are exactly its receiver and its variables, so what a
   collection keeps never depends on the intermediate values of a
   half-evaluated expression. *)

(* A genuine defect in the interpreted program, with its source position
   (line, column).  [Compile] re-raises it as [Runtime_error]. *)
exception Error of string * int * int

(* Loop control, raised by BREAK/CONT and caught by WHILE/FOR (and
   TRY, which treats them as pending outcomes run after [finally]). *)
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

type fn_site = {
  fs_name : string; (* for the per-VM hook override check *)
  fs_target : Vm.t -> Value.t list -> Value.t;
}

type new_site = {
  ns_cls : string;
  ns_known : bool; (* class present in the image *)
  ns_template : (string * Value.t) list;
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

type frame = {
  regs : Value.t array;
  n_slots : int;
  mutable this : Value.t;
  mutable ret : Value.t;
}

(* ------------------------------------------------------------------ *)
(* Profiling (the flame/superinstruction-selection harness)            *)
(* ------------------------------------------------------------------ *)

(* One branch per dispatched instruction when disabled.  Counts are
   process-global: the profile harness runs single-VM workloads. *)
let profiling = ref false
let op_counts = Array.make n_ops 0
let pair_counts = Array.make (n_ops * n_ops) 0
let prev_op = ref (-1)

let reset_profile () =
  Array.fill op_counts 0 n_ops 0;
  Array.fill pair_counts 0 (n_ops * n_ops) 0;
  prev_op := -1

let record_op op =
  Array.unsafe_set op_counts op (Array.unsafe_get op_counts op + 1);
  let p = !prev_op in
  if p >= 0 then begin
    let i = (p * n_ops) + op in
    Array.unsafe_set pair_counts i (Array.unsafe_get pair_counts i + 1)
  end;
  prev_op := op

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
    | Heap.Obj { cls; fields } -> (
      match Hashtbl.find fields field with
      | v -> v
      | exception Not_found -> err line col "class %s has no field %s" cls field)
    | Heap.Arr _ -> err line col "arrays have no fields (reading %s)" field)
  | v -> err line col "field read %s on %s" field (Value.type_name v)

let set_obj_field vm line col (recv : Value.t) field v =
  match recv with
  | Value.Null ->
    Vm.throw vm "NullPointerException" ("write of field " ^ field ^ " on null")
  | Value.Ref id -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Obj { cls; fields } ->
      if Option.is_none (Hashtbl.find_opt fields field) then
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
  let fields = List.map (fun f -> (f, Value.Null)) (Vm.all_fields vm cls) in
  let id = Heap.alloc_object vm.Vm.heap ~cls fields in
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
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

type try_outcome =
  | ODone
  | ORet of Value.t (* captured eagerly: [finally] may clobber [frame.ret] *)
  | ORaise of Vm.exn_value
  | OFlow of exn

(* Arguments [base .. base+n) as a list, head first. *)
let rec arg_list regs base i acc =
  if i < 0 then acc
  else arg_list regs base (i - 1) (Array.unsafe_get regs (base + i) :: acc)

(* Method dispatch through a site's inline cache — shared by CALL and
   its fused variants (CALLT / CALLP / CALLTP). *)
let do_call vm (site : call_site) recv vargs : Value.t =
  match recv with
  | Value.Ref id -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Obj { cls; _ } ->
      let ccls, cidx = !(site.cs_cache) in
      if cls == ccls then begin
        vm.Vm.ic_hits <- vm.Vm.ic_hits + 1;
        Vm.call_filtered vm (Array.unsafe_get vm.Vm.meth_table cidx) recv vargs
      end
      else begin
        vm.Vm.ic_misses <- vm.Vm.ic_misses + 1;
        let idx = site.cs_resolve cls in
        if idx >= 0 then begin
          site.cs_cache := (cls, idx);
          Vm.call_filtered vm (Array.unsafe_get vm.Vm.meth_table idx) recv vargs
        end
        else
          (* receiver class or method outside the image *)
          Vm.call_filtered vm (Vm.find_method vm cls site.cs_name) recv vargs
      end
    | Heap.Arr _ ->
      Vm.throw vm "UnsupportedOperationException"
        ("method call on array: " ^ site.cs_name))
  | Value.Null ->
    Vm.throw vm "NullPointerException" ("call of " ^ site.cs_name ^ " on null")
  | Value.Int _ | Value.Bool _ | Value.Str _ ->
    Vm.throw vm "UnsupportedOperationException"
      (Printf.sprintf "call of %s on %s" site.cs_name (Value.type_name recv))

let do_fncall vm (site : fn_site) vargs : Value.t =
  if Hashtbl.length vm.Vm.hooks = 0 then site.fs_target vm vargs
  else
    match Vm.find_hook vm site.fs_name with
    | Some hook -> hook vm vargs
    | None -> site.fs_target vm vargs

let rec exec c vm fr regs ops pc sp : int =
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
  (* one dense match = one jump table; arms ordered by opcode number *)
  match op with
  | 0 (* END *) -> 0
  | 1 (* CONST *) ->
    Array.unsafe_set regs sp
      (Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 2)));
    exec c vm fr regs ops (pc + 3) (sp + 1)
  | 2 (* NULL *) ->
    Array.unsafe_set regs sp Value.Null;
    exec c vm fr regs ops (pc + 2) (sp + 1)
  | 3 (* THIS *) ->
    Array.unsafe_set regs sp fr.this;
    exec c vm fr regs ops (pc + 2) (sp + 1)
  | 4 (* LOAD *) ->
    let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
    if v == unbound then
      err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
    Array.unsafe_set regs sp v;
    exec c vm fr regs ops (pc + 6) (sp + 1)
  | 5 (* FAIL *) ->
    raise (Error (c.c_strs.(ops.(pc + 2)), ops.(pc + 3), ops.(pc + 4)))
  | 6 (* NEG *) ->
    (match Array.unsafe_get regs (sp - 1) with
     | Value.Int n -> Array.unsafe_set regs (sp - 1) (vint (-n))
     | v -> err ops.(pc + 2) ops.(pc + 3) "negation of %s" (Value.type_name v));
    exec c vm fr regs ops (pc + 4) sp
  | 7 (* NOT *) ->
    Array.unsafe_set regs (sp - 1)
      (vbool (not (Value.truthy (Array.unsafe_get regs (sp - 1)))));
    exec c vm fr regs ops (pc + 2) sp
  | 8 (* BINOP *) ->
    let b = Array.unsafe_get regs (sp - 1) in
    let a = Array.unsafe_get regs (sp - 2) in
    Array.unsafe_set regs (sp - 2)
      (eval_binop vm (Array.unsafe_get ops (pc + 2)) a b
         (Array.unsafe_get ops (pc + 3))
         (Array.unsafe_get ops (pc + 4)));
    exec c vm fr regs ops (pc + 5) (sp - 1)
  | 9 (* TRUTHY *) ->
    Array.unsafe_set regs (sp - 1)
      (vbool (Value.truthy (Array.unsafe_get regs (sp - 1))));
    exec c vm fr regs ops (pc + 2) sp
  | 10 (* JMP *) -> exec c vm fr regs ops (Array.unsafe_get ops (pc + 2)) sp
  | 11 (* JF *) ->
    if Value.truthy (Array.unsafe_get regs (sp - 1)) then
      exec c vm fr regs ops (pc + 3) (sp - 1)
    else exec c vm fr regs ops (Array.unsafe_get ops (pc + 2)) (sp - 1)
  | 12 (* GETFIELD *) ->
    Array.unsafe_set regs (sp - 1)
      (get_obj_field vm
         (Array.unsafe_get ops (pc + 3))
         (Array.unsafe_get ops (pc + 4))
         (Array.unsafe_get regs (sp - 1))
         (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 2))));
    exec c vm fr regs ops (pc + 5) sp
  | 13 (* GETIDX *) ->
    let r =
      get_index vm
        (Array.unsafe_get ops (pc + 2))
        (Array.unsafe_get ops (pc + 3))
        (Array.unsafe_get regs (sp - 2))
        (Array.unsafe_get regs (sp - 1))
    in
    Array.unsafe_set regs (sp - 2) r;
    exec c vm fr regs ops (pc + 4) (sp - 1)
  | 14 (* CALL *) ->
      let site = Array.unsafe_get c.c_calls (Array.unsafe_get ops (pc + 2)) in
      let n = Array.unsafe_get ops (pc + 3) in
      let base = sp - n in
      let recv = Array.unsafe_get regs (base - 1) in
      let vargs = arg_list regs base (n - 1) [] in
      Array.unsafe_set regs (base - 1) (do_call vm site recv vargs);
      exec c vm fr regs ops (pc + 4) base
    | 18 (* FNCALL *) ->
      let site = Array.unsafe_get c.c_fns (Array.unsafe_get ops (pc + 2)) in
      let n = Array.unsafe_get ops (pc + 3) in
      let base = sp - n in
      let vargs = arg_list regs base (n - 1) [] in
      Array.unsafe_set regs base (do_fncall vm site vargs);
      exec c vm fr regs ops (pc + 4) (base + 1)
    | 19 (* NEW *) ->
      let site = Array.unsafe_get c.c_news (Array.unsafe_get ops (pc + 2)) in
      let n = Array.unsafe_get ops (pc + 3) in
      let base = sp - n in
      let vargs = arg_list regs base (n - 1) [] in
      let result =
        if not site.ns_known then
          instantiate_dyn vm site.ns_line site.ns_col site.ns_cls vargs
        else begin
          let id = Heap.alloc_object vm.Vm.heap ~cls:site.ns_cls site.ns_template in
          let recv = Value.Ref id in
          (if site.ns_init >= 0 then
             ignore
               (Vm.call_filtered vm
                  (Array.unsafe_get vm.Vm.meth_table site.ns_init)
                  recv vargs)
           else
             match Vm.lookup_method vm site.ns_cls "init" with
             | Some meth ->
               (* an init added to this VM after instantiation *)
               ignore (Vm.call_filtered vm meth recv vargs)
             | None -> (
               match vargs with
               | [] -> ()
               | [ Value.Str m ] when site.ns_is_exc ->
                 Heap.set_field vm.Vm.heap id "message" (Value.Str m)
               | _ ->
                 err site.ns_line site.ns_col "class %s has no init method"
                   site.ns_cls));
          recv
        end
      in
      Array.unsafe_set regs base result;
      exec c vm fr regs ops (pc + 4) (base + 1)
    | 21 (* STORE *) ->
      Array.unsafe_set regs (Array.unsafe_get ops (pc + 2))
        (Array.unsafe_get regs (sp - 1));
      exec c vm fr regs ops (pc + 3) (sp - 1)
    | 22 (* STORECHK *) ->
      let slot = Array.unsafe_get ops (pc + 2) in
      if Array.unsafe_get regs slot == unbound then
        err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
      Array.unsafe_set regs slot (Array.unsafe_get regs (sp - 1));
      exec c vm fr regs ops (pc + 6) (sp - 1)
    | 23 (* SETFIELD *) ->
      set_obj_field vm ops.(pc + 3) ops.(pc + 4)
        (Array.unsafe_get regs (sp - 2))
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 2)))
        (Array.unsafe_get regs (sp - 1));
      exec c vm fr regs ops (pc + 5) (sp - 2)
    | 24 (* SETIDX *) ->
      set_index vm ops.(pc + 2) ops.(pc + 3)
        (Array.unsafe_get regs (sp - 3))
        (Array.unsafe_get regs (sp - 2))
        (Array.unsafe_get regs (sp - 1));
      exec c vm fr regs ops (pc + 4) (sp - 3)
    | 25 (* POP *) -> exec c vm fr regs ops (pc + 2) (sp - 1)
    | 26 (* RET *) ->
      fr.ret <- Array.unsafe_get regs (sp - 1);
      1
    | 27 (* RETNULL *) ->
      fr.ret <- Value.Null;
      1
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
          raise (Vm.Mini_raise { Vm.exn_class = cls; message; exn_obj = obj })
        | Some cls -> err ops.(pc + 2) ops.(pc + 3) "throw of non-exception class %s" cls
        | None -> err ops.(pc + 2) ops.(pc + 3) "throw of an array")
      | v -> err ops.(pc + 2) ops.(pc + 3) "throw of %s" (Value.type_name v))
    | 29 (* BREAK *) -> raise Break_loop
    | 30 (* CONT *) -> raise Continue_loop
    | 31 (* WHILE *) ->
      let ls = Array.unsafe_get c.c_loops (Array.unsafe_get ops (pc + 2)) in
      let st =
        try
          let rec wloop () =
            ignore (exec c vm fr regs ls.ls_cond 0 sp : int);
            if Value.truthy (Array.unsafe_get regs sp) then begin
              let st =
                try exec c vm fr regs ls.ls_body 0 sp with Continue_loop -> 0
              in
              if st = 0 then wloop () else st
            end
            else 0
          in
          wloop ()
        with Break_loop -> 0
      in
      if st <> 0 then st else exec c vm fr regs ops (pc + 3) sp
    | 32 (* FOR *) ->
      let ls = Array.unsafe_get c.c_loops (Array.unsafe_get ops (pc + 2)) in
      let cond_ok () =
        Array.length ls.ls_cond = 0
        || begin
          ignore (exec c vm fr regs ls.ls_cond 0 sp : int);
          Value.truthy (Array.unsafe_get regs sp)
        end
      in
      let st =
        try
          let rec floop () =
            if cond_ok () then begin
              let st =
                try exec c vm fr regs ls.ls_body 0 sp with Continue_loop -> 0
              in
              if st <> 0 then st
              else begin
                (* a [continue] in the update propagates out of the
                   loop, a [break] is caught below: only the body
                   catches [continue], the whole loop catches [break] *)
                let stu =
                  if Array.length ls.ls_update = 0 then 0
                  else exec c vm fr regs ls.ls_update 0 sp
                in
                if stu <> 0 then stu else floop ()
              end
            end
            else 0
          in
          floop ()
        with Break_loop -> 0
      in
      if st <> 0 then st else exec c vm fr regs ops (pc + 3) sp
    | 33 (* TRY *) ->
      let ts = Array.unsafe_get c.c_trys (Array.unsafe_get ops (pc + 2)) in
      let outcome =
        match exec c vm fr regs ts.ts_body 0 sp with
        | 0 -> ODone
        | _ -> ORet fr.ret
        | exception Vm.Mini_raise e -> ORaise e
        | exception ((Break_loop | Continue_loop) as flow) -> OFlow flow
      in
      let handled =
        match outcome with
        | ORaise e ->
          let n = Array.length ts.ts_catches in
          let rec find i =
            if i >= n then outcome
            else begin
              let hc, slot, cbody = Array.unsafe_get ts.ts_catches i in
              if c.c_env.env_exn_matches vm e hc then begin
                Array.unsafe_set regs slot e.Vm.exn_obj;
                match exec c vm fr regs cbody 0 sp with
                | 0 -> ODone
                | _ -> ORet fr.ret
                | exception Vm.Mini_raise e2 -> ORaise e2
                | exception ((Break_loop | Continue_loop) as flow) -> OFlow flow
              end
              else find (i + 1)
            end
          in
          find 0
        | ODone | ORet _ | OFlow _ -> outcome
      in
      (* As in Java: the finally block runs last and, if it completes
         abruptly (returns, raises), its outcome supersedes the pending
         one. *)
      let fin_st =
        if Array.length ts.ts_fin = 0 then 0 else exec c vm fr regs ts.ts_fin 0 sp
      in
      if fin_st <> 0 then fin_st
      else (
        match handled with
        | ODone -> exec c vm fr regs ops (pc + 3) sp
        | ORet v ->
          fr.ret <- v;
          1
        | ORaise e -> raise (Vm.Mini_raise e)
        | OFlow f -> raise f)
    | 34 (* TICKN *) -> exec c vm fr regs ops (pc + 2) sp
    | 15 (* SUPER *) ->
      let midx = Array.unsafe_get ops (pc + 2) in
      let n = Array.unsafe_get ops (pc + 3) in
      let base = sp - n in
      let vargs = arg_list regs base (n - 1) [] in
      let result =
        Vm.call_filtered vm (Array.unsafe_get vm.Vm.meth_table midx) fr.this vargs
      in
      Array.unsafe_set regs base result;
      exec c vm fr regs ops (pc + 4) (base + 1)
    | 16 (* SUPERCK *) ->
      let sup = c.c_strs.(ops.(pc + 2)) in
      let m = c.c_strs.(ops.(pc + 3)) in
      (match Vm.lookup_method vm sup m with
       | Some _ -> ()
       | None ->
         err ops.(pc + 5) ops.(pc + 6) "no method %s in superclasses of %s" m
           c.c_strs.(ops.(pc + 4)));
      exec c vm fr regs ops (pc + 7) sp
    | 17 (* SUPERDYN *) ->
      let sup = c.c_strs.(ops.(pc + 2)) in
      let m = c.c_strs.(ops.(pc + 3)) in
      let n = Array.unsafe_get ops (pc + 7) in
      let base = sp - n in
      let vargs = arg_list regs base (n - 1) [] in
      (match Vm.lookup_method vm sup m with
       | Some meth ->
         Array.unsafe_set regs base (Vm.call_filtered vm meth fr.this vargs);
         exec c vm fr regs ops (pc + 8) (base + 1)
       | None ->
         err ops.(pc + 5) ops.(pc + 6) "no method %s in superclasses of %s" m
           c.c_strs.(ops.(pc + 4)))
    | 20 (* ARRAY *) ->
      let n = Array.unsafe_get ops (pc + 2) in
      let base = sp - n in
      let a = Array.init n (fun i -> Array.unsafe_get regs (base + i)) in
      Array.unsafe_set regs base (Value.Ref (Heap.alloc vm.Vm.heap (Heap.Arr a)));
      exec c vm fr regs ops (pc + 3) (base + 1)
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
      exec c vm fr regs ops (pc + 11) (sp + 2)
    | 36 (* LOADC *) ->
      let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
      if v == unbound then
        err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
      Array.unsafe_set regs sp v;
      let t2 = Array.unsafe_get ops (pc + 6) in
      if t2 <> 0 then tick_n vm t2;
      Array.unsafe_set regs (sp + 1)
        (Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 7)));
      exec c vm fr regs ops (pc + 8) (sp + 2)
    | 37 (* LOADF *) ->
      let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
      if v == unbound then
        err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
      let t2 = Array.unsafe_get ops (pc + 6) in
      if t2 <> 0 then tick_n vm t2;
      Array.unsafe_set regs sp
        (get_obj_field vm ops.(pc + 8) ops.(pc + 9) v
           (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 7))));
      exec c vm fr regs ops (pc + 10) (sp + 1)
    | 38 (* THISF *) ->
      let v = fr.this in
      let t2 = Array.unsafe_get ops (pc + 2) in
      if t2 <> 0 then tick_n vm t2;
      Array.unsafe_set regs sp
        (get_obj_field vm ops.(pc + 4) ops.(pc + 5) v
           (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 3))));
      exec c vm fr regs ops (pc + 6) (sp + 1)
    | 39 (* CONSTB *) ->
      let b = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 2)) in
      let t2 = Array.unsafe_get ops (pc + 3) in
      if t2 <> 0 then tick_n vm t2;
      Array.unsafe_set regs (sp - 1)
        (eval_binop vm (Array.unsafe_get ops (pc + 4))
           (Array.unsafe_get regs (sp - 1))
           b ops.(pc + 5) ops.(pc + 6));
      exec c vm fr regs ops (pc + 7) sp
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
      exec c vm fr regs ops (pc + 10) sp
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
      exec c vm fr regs ops (pc + 12) (sp + 1)
    | 42 (* BJF: binop; jump-if-false — result branched, never pushed *) ->
      let b = Array.unsafe_get regs (sp - 1) in
      let a = Array.unsafe_get regs (sp - 2) in
      let r =
        eval_binop vm (Array.unsafe_get ops (pc + 2)) a b ops.(pc + 3)
          ops.(pc + 4)
      in
      let t2 = Array.unsafe_get ops (pc + 5) in
      if t2 <> 0 then tick_n vm t2;
      if Value.truthy r then exec c vm fr regs ops (pc + 7) (sp - 2)
      else exec c vm fr regs ops (Array.unsafe_get ops (pc + 6)) (sp - 2)
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
      exec c vm fr regs ops (pc + 10) (sp - 2)
    | 44 (* CALLT: method call with [this] receiver (no receiver push) *) ->
      let site = Array.unsafe_get c.c_calls (Array.unsafe_get ops (pc + 2)) in
      let n = Array.unsafe_get ops (pc + 3) in
      let base = sp - n in
      let vargs = arg_list regs base (n - 1) [] in
      Array.unsafe_set regs base (do_call vm site fr.this vargs);
      exec c vm fr regs ops (pc + 4) (base + 1)
    | 45 (* SETFT: setfield on [this] *) ->
      set_obj_field vm ops.(pc + 3) ops.(pc + 4) fr.this
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 2)))
        (Array.unsafe_get regs (sp - 1));
      exec c vm fr regs ops (pc + 5) (sp - 1)
    | 46 (* CALLP: call; pop — result discarded *) ->
      let site = Array.unsafe_get c.c_calls (Array.unsafe_get ops (pc + 2)) in
      let n = Array.unsafe_get ops (pc + 3) in
      let base = sp - n in
      let recv = Array.unsafe_get regs (base - 1) in
      let vargs = arg_list regs base (n - 1) [] in
      ignore (do_call vm site recv vargs : Value.t);
      let t2 = Array.unsafe_get ops (pc + 4) in
      if t2 <> 0 then tick_n vm t2;
      exec c vm fr regs ops (pc + 5) (base - 1)
    | 47 (* FNCALLP: fncall; pop *) ->
      let site = Array.unsafe_get c.c_fns (Array.unsafe_get ops (pc + 2)) in
      let n = Array.unsafe_get ops (pc + 3) in
      let base = sp - n in
      let vargs = arg_list regs base (n - 1) [] in
      ignore (do_fncall vm site vargs : Value.t);
      let t2 = Array.unsafe_get ops (pc + 4) in
      if t2 <> 0 then tick_n vm t2;
      exec c vm fr regs ops (pc + 5) base
    | 48 (* CALLTP: callt; pop *) ->
      let site = Array.unsafe_get c.c_calls (Array.unsafe_get ops (pc + 2)) in
      let n = Array.unsafe_get ops (pc + 3) in
      let base = sp - n in
      let vargs = arg_list regs base (n - 1) [] in
      ignore (do_call vm site fr.this vargs : Value.t);
      let t2 = Array.unsafe_get ops (pc + 4) in
      if t2 <> 0 then tick_n vm t2;
      exec c vm fr regs ops (pc + 5) base
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
      exec c vm fr regs ops (pc + 17) sp
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
      if Value.truthy r then exec c vm fr regs ops (pc + 14) sp
      else exec c vm fr regs ops (Array.unsafe_get ops (pc + 13)) sp
    | 51 (* BRET: binop; ret *) ->
      let b = Array.unsafe_get regs (sp - 1) in
      let a = Array.unsafe_get regs (sp - 2) in
      let r =
        eval_binop vm (Array.unsafe_get ops (pc + 2)) a b ops.(pc + 3)
          ops.(pc + 4)
      in
      let t2 = Array.unsafe_get ops (pc + 5) in
      if t2 <> 0 then tick_n vm t2;
      fr.ret <- r;
      1
    | 52 (* LRET: load; ret *) ->
      let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
      if v == unbound then
        err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
      let t2 = Array.unsafe_get ops (pc + 6) in
      if t2 <> 0 then tick_n vm t2;
      fr.ret <- v;
      1
    | 53 (* NRET: null; ret *) ->
      let t2 = Array.unsafe_get ops (pc + 2) in
      if t2 <> 0 then tick_n vm t2;
      fr.ret <- Value.Null;
      1
    | 54 (* TFRET: thisf; ret *) ->
      let t2 = Array.unsafe_get ops (pc + 2) in
      if t2 <> 0 then tick_n vm t2;
      let v =
        get_obj_field vm ops.(pc + 4) ops.(pc + 5) fr.this
          (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 3)))
      in
      let t3 = Array.unsafe_get ops (pc + 6) in
      if t3 <> 0 then tick_n vm t3;
      fr.ret <- v;
      1
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
      fr.ret <- r;
      1
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
      exec c vm fr regs ops (pc + 15) (sp + 1)
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
      exec c vm fr regs ops (pc + 20) sp
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
      if Value.truthy r then exec c vm fr regs ops (pc + 17) sp
      else exec c vm fr regs ops (Array.unsafe_get ops (pc + 16)) sp
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
      fr.ret <- r;
      1
    | 60 (* CRET: const; ret *) ->
      let v = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 2)) in
      let t2 = Array.unsafe_get ops (pc + 3) in
      if t2 <> 0 then tick_n vm t2;
      fr.ret <- v;
      1
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
      exec c vm fr regs ops (pc + 12) (sp + 1)
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
      Array.unsafe_set regs base (do_fncall vm site vargs);
      exec c vm fr regs ops (pc + 9) (base + 1)
    | 63 (* LSETFT: load; setfield-on-this *) ->
      let v = Array.unsafe_get regs (Array.unsafe_get ops (pc + 2)) in
      if v == unbound then
        err ops.(pc + 4) ops.(pc + 5) "unknown variable %s" c.c_strs.(ops.(pc + 3));
      let t2 = Array.unsafe_get ops (pc + 6) in
      if t2 <> 0 then tick_n vm t2;
      set_obj_field vm ops.(pc + 8) ops.(pc + 9) fr.this
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 7)))
        v;
      exec c vm fr regs ops (pc + 10) sp
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
      exec c vm fr regs ops (pc + 11) (sp - 1)
    | 65 (* TRET: this; ret *) ->
      let t2 = Array.unsafe_get ops (pc + 2) in
      if t2 <> 0 then tick_n vm t2;
      fr.ret <- fr.this;
      1
    | 66 (* CSETFT: const; setfield-on-this *) ->
      let v = Array.unsafe_get c.c_consts (Array.unsafe_get ops (pc + 2)) in
      let t2 = Array.unsafe_get ops (pc + 3) in
      if t2 <> 0 then tick_n vm t2;
      set_obj_field vm ops.(pc + 5) ops.(pc + 6) fr.this
        (Array.unsafe_get c.c_strs (Array.unsafe_get ops (pc + 4)))
        v;
      exec c vm fr regs ops (pc + 7) sp
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
      if Value.truthy r then exec c vm fr regs ops (pc + 14) sp
      else exec c vm fr regs ops (Array.unsafe_get ops (pc + 13)) sp
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
      Array.unsafe_set regs base (do_fncall vm site vargs);
      exec c vm fr regs ops (pc + 14) (base + 1)

(* ------------------------------------------------------------------ *)
(* Frame entry                                                         *)
(* ------------------------------------------------------------------ *)

(* Root enumeration scans [this] and the slot prefix in place.  Stack
   temporaries are not roots — see the module comment. *)
let frame_mark fr (mark : Value.t -> unit) =
  mark fr.this;
  let regs = fr.regs in
  for i = 0 to fr.n_slots - 1 do
    mark (Array.unsafe_get regs i)
  done

(* Removal is by physical identity, not a blind head pop: under the
   thread scheduler the root list interleaves frames of several MiniLang
   threads, so this frame's entry need not be the head when it exits. *)
let pop_frame_roots vm roots =
  match vm.Vm.frame_roots with
  | r :: rest when r == roots -> vm.Vm.frame_roots <- rest
  | l -> vm.Vm.frame_roots <- List.filter (fun r -> r != roots) l

(* Runs a body in a fresh frame.  [param_slots.(i)] is the register of
   the i-th parameter; a length mismatch with [args] raises
   [Invalid_argument "List.iter2"].  Only a directly applied function
   (e.g. a parameterised [main]) gets here with the wrong arity — call
   sites and method entry wrappers check arity first, with their own
   messages — and the text is kept stable for callers that match on
   it. *)
let run_root code vm this param_slots args =
  let fr =
    { regs = Array.make code.c_stack unbound;
      n_slots = code.c_nslots;
      this;
      ret = Value.Null }
  in
  let n_params = Array.length param_slots in
  let rec fill i = function
    | [] -> if i <> n_params then invalid_arg "List.iter2"
    | v :: rest ->
      if i >= n_params then invalid_arg "List.iter2";
      fr.regs.(Array.unsafe_get param_slots i) <- v;
      fill (i + 1) rest
  in
  fill 0 args;
  let roots = frame_mark fr in
  vm.Vm.frame_roots <- roots :: vm.Vm.frame_roots;
  match exec code vm fr fr.regs code.c_main 0 code.c_nslots with
  | st ->
    pop_frame_roots vm roots;
    if st = 0 then Value.Null else fr.ret
  | exception e ->
    pop_frame_roots vm roots;
    raise e
