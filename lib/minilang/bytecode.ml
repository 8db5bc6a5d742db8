(* AST → flat bytecode emission for the [Exec] engine.

   One [Exec.code] object is emitted per method or function body at
   image-build time: slot resolution, static call-site resolution (user
   functions shadow builtins, [super]/[new] resolved against the image),
   error messages and — crucially — [Vm.tick] accounting, all of which
   the golden engine table (test/golden/engine_runs.txt) pins.  Every
   AST node contributes one tick at its semantic start; the emitter
   accumulates those in a [pending] counter
   that is folded into the tick field of the next emitted instruction
   (which is exactly the first thing that executes after those nodes
   start), flushed explicitly (TICKN) only where control flow could
   otherwise skip or re-run it (labels, block ends).

   Loops and try/catch/finally become nested sub-blocks referenced
   through site records, so their OCaml-exception scoping in [Exec] is
   exactly the source nesting of loops and handlers; if/and/or lower to
   conditional jumps within one instruction array.

   The peephole pass runs during emission: when the instruction just
   emitted and the one being emitted form one of the dominant dynamic
   pairs measured on the Table-1 app suite (doc/bytecode.md), the pair
   is rewritten in place into a superinstruction.  Fusion is blocked
   across labels (a jump target must stay addressable) and each fused
   component keeps its own tick operand, so step accounting and error
   ordering are unchanged. *)

open Failatom_runtime

(* What the emitter needs to know about the image under construction.
   Passed as closures by [Compile] to keep the module dependency
   one-way (Compile → Bytecode → Exec). *)
type cls_info = {
  ci_layout : string array; (* [Heap.layout] of all fields *)
  ci_init : int; (* image method index of [init], or -1 *)
  ci_is_exc : bool;
}

type linkage = {
  lk_resolve : string -> string -> int;
      (* class name -> method name -> image method index, or -1 *)
  lk_fn : string -> (int * Exec.fbody) option;
      (* user function: arity and (late-filled) body *)
  lk_class : string -> cls_info option;
  lk_is_exc : Vm.t -> string -> bool;
  lk_exn_matches : Vm.t -> Vm.exn_value -> string -> bool;
}

(* [Ast.binop] in declaration order; must match [Exec.eval_binop]. *)
let binop_code : Ast.binop -> int = function
  | Ast.Add -> 0
  | Ast.Sub -> 1
  | Ast.Mul -> 2
  | Ast.Div -> 3
  | Ast.Mod -> 4
  | Ast.Eq -> 5
  | Ast.Neq -> 6
  | Ast.Lt -> 7
  | Ast.Le -> 8
  | Ast.Gt -> 9
  | Ast.Ge -> 10

(* ------------------------------------------------------------------ *)
(* Emission state                                                      *)
(* ------------------------------------------------------------------ *)

(* Pools shared by a body and all its sub-blocks. *)
type cx = {
  lk : linkage;
  slots : (string, int) Hashtbl.t;
  defining : (string * string option) option; (* class, superclass *)
  mutable consts_rev : Value.t list;
  mutable n_consts : int;
  const_ix : (Value.t, int) Hashtbl.t;
  mutable strs_rev : string list;
  mutable n_strs : int;
  str_ix : (string, int) Hashtbl.t;
  mutable calls_rev : Exec.call_site list;
  mutable n_calls : int;
  mutable fns_rev : Exec.fn_site list;
  mutable n_fns : int;
  mutable news_rev : Exec.new_site list;
  mutable n_news : int;
  mutable loops_rev : Exec.loop_site list;
  mutable n_loops : int;
  mutable trys_rev : Exec.try_site list;
  mutable n_trys : int;
  mutable max_stack : int;
      (* conservative (may over-estimate across joins, never under) *)
}

(* One instruction buffer: a body or a loop/try sub-block.  Every block
   executes at the frame's base stack pointer, so [depth] always starts
   at 0 and [cx.max_stack] is the max over all blocks. *)
type blk = {
  mutable bc : int array;
  mutable blen : int;
  mutable pending : int; (* ticks owed to the next emitted instruction *)
  mutable last : int; (* start of the last instruction; -1 at labels *)
  mutable last2 : int; (* start of the instruction before [last]; -1 unknown *)
  mutable depth : int;
}

let new_blk () =
  { bc = Array.make 64 0; blen = 0; pending = 0; last = -1; last2 = -1; depth = 0 }

let make_cx lk slots defining =
  { lk; slots; defining;
    consts_rev = []; n_consts = 0; const_ix = Hashtbl.create 16;
    strs_rev = []; n_strs = 0; str_ix = Hashtbl.create 16;
    calls_rev = []; n_calls = 0;
    fns_rev = []; n_fns = 0;
    news_rev = []; n_news = 0;
    loops_rev = []; n_loops = 0;
    trys_rev = []; n_trys = 0;
    max_stack = 0 }

let add_const cx v =
  match Hashtbl.find_opt cx.const_ix v with
  | Some k -> k
  | None ->
    let k = cx.n_consts in
    cx.n_consts <- k + 1;
    cx.consts_rev <- v :: cx.consts_rev;
    Hashtbl.replace cx.const_ix v k;
    k

let add_str cx s =
  match Hashtbl.find_opt cx.str_ix s with
  | Some k -> k
  | None ->
    let k = cx.n_strs in
    cx.n_strs <- k + 1;
    cx.strs_rev <- s :: cx.strs_rev;
    Hashtbl.replace cx.str_ix s k;
    k

let add_call cx site =
  let k = cx.n_calls in
  cx.n_calls <- k + 1;
  cx.calls_rev <- site :: cx.calls_rev;
  k

let add_fn cx site =
  let k = cx.n_fns in
  cx.n_fns <- k + 1;
  cx.fns_rev <- site :: cx.fns_rev;
  k

let add_new cx site =
  let k = cx.n_news in
  cx.n_news <- k + 1;
  cx.news_rev <- site :: cx.news_rev;
  k

let add_loop cx site =
  let k = cx.n_loops in
  cx.n_loops <- k + 1;
  cx.loops_rev <- site :: cx.loops_rev;
  k

let add_try cx site =
  let k = cx.n_trys in
  cx.n_trys <- k + 1;
  cx.trys_rev <- site :: cx.trys_rev;
  k

let bump cx b d =
  b.depth <- b.depth + d;
  if b.depth > cx.max_stack then cx.max_stack <- b.depth

let ensure b n =
  if b.blen + n > Array.length b.bc then begin
    let bigger = Array.make (max (2 * Array.length b.bc) (b.blen + n)) 0 in
    Array.blit b.bc 0 bigger 0 b.blen;
    b.bc <- bigger
  end

(* Appends a full instruction (opcode and tick field included). *)
let raw b ws =
  ensure b (List.length ws);
  b.last2 <- b.last;
  b.last <- b.blen;
  List.iter
    (fun w ->
      b.bc.(b.blen) <- w;
      b.blen <- b.blen + 1)
    ws

(* Appends [op] with the pending ticks and the given operands. *)
let instr b op operands =
  let t = b.pending in
  b.pending <- 0;
  raw b (op :: t :: operands)

let pend b = b.pending <- b.pending + 1
let flush_ticks b = if b.pending > 0 then instr b Exec.op_tickn []

(* The last emitted instruction, available for fusion (-1 when the
   current position is a jump target). *)
let prev_op b = if b.last >= 0 then b.bc.(b.last) else -1

(* Removes the last instruction from the buffer and returns its words;
   the following [raw] re-starts at the same offset.  May be called
   twice in a row to take a two-instruction window. *)
let take_prev b =
  let p = b.last in
  let ws = Array.sub b.bc p (b.blen - p) in
  b.blen <- p;
  b.last <- b.last2;
  b.last2 <- -1;
  ws

(* Forward-only labels (loops are sub-blocks, so no backward jumps). *)
type label = { mutable lpos : int; mutable patches : int list }

let new_label () = { lpos = -1; patches = [] }

let jump b op l =
  (* a conditional jump straight after a comparison folds into it: the
     result is branched on without ever being pushed *)
  (if op = Exec.op_jf && b.last >= 0 && b.bc.(b.last) = Exec.op_binop then begin
     let w = take_prev b in
     let t2 = b.pending in
     b.pending <- 0;
     raw b [ Exec.op_bjf; w.(1); w.(2); w.(3); w.(4); t2; 0 ]
   end
   else if op = Exec.op_jf && b.last >= 0 && b.bc.(b.last) = Exec.op_lcb then begin
     let w = take_prev b in
     let t2 = b.pending in
     b.pending <- 0;
     raw b
       [ Exec.op_lcbjf; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); w.(7); w.(8);
         w.(9); w.(10); w.(11); t2; 0 ]
   end
   else if op = Exec.op_jf && b.last >= 0 && b.bc.(b.last) = Exec.op_llb then begin
     let w = take_prev b in
     let t2 = b.pending in
     b.pending <- 0;
     raw b
       [ Exec.op_llbjf; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); w.(7); w.(8);
         w.(9); w.(10); w.(11); w.(12); w.(13); w.(14); t2; 0 ]
   end
   else if op = Exec.op_jf && b.last >= 0 && b.bc.(b.last) = Exec.op_tfcb then begin
     let w = take_prev b in
     let t2 = b.pending in
     b.pending <- 0;
     raw b
       [ Exec.op_tfcbjf; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); w.(7); w.(8);
         w.(9); w.(10); w.(11); t2; 0 ]
   end
   else instr b op [ 0 ]);
  let at = b.blen - 1 in
  if l.lpos >= 0 then b.bc.(at) <- l.lpos else l.patches <- at :: l.patches

let bind b l =
  flush_ticks b;
  b.last <- -1;
  b.last2 <- -1;
  l.lpos <- b.blen;
  List.iter (fun p -> b.bc.(p) <- b.blen) l.patches

let finish b =
  instr b Exec.op_end [];
  Array.sub b.bc 0 b.blen

(* ------------------------------------------------------------------ *)
(* Fused emitters (the peephole pass)                                  *)
(* ------------------------------------------------------------------ *)

let emit_load cx b slot name line col =
  let nix = add_str cx name in
  (if prev_op b = Exec.op_load then begin
     let w = take_prev b in
     let t2 = b.pending in
     b.pending <- 0;
     raw b
       [ Exec.op_load2; w.(1); w.(2); w.(3); w.(4); w.(5); t2; slot; nix; line; col ]
   end
   else instr b Exec.op_load [ slot; nix; line; col ]);
  bump cx b 1

let emit_const cx b v =
  let k = add_const cx v in
  (if prev_op b = Exec.op_load then begin
     let w = take_prev b in
     let t2 = b.pending in
     b.pending <- 0;
     raw b [ Exec.op_loadc; w.(1); w.(2); w.(3); w.(4); w.(5); t2; k ]
   end
   else instr b Exec.op_const [ k ]);
  bump cx b 1

let emit_getfield cx b field line col =
  let fix = add_str cx field in
  let p = prev_op b in
  if p = Exec.op_load then begin
    let w = take_prev b in
    let t2 = b.pending in
    b.pending <- 0;
    raw b [ Exec.op_loadf; w.(1); w.(2); w.(3); w.(4); w.(5); t2; fix; line; col ]
  end
  else if p = Exec.op_this then begin
    let w = take_prev b in
    let t2 = b.pending in
    b.pending <- 0;
    raw b [ Exec.op_thisf; w.(1); t2; fix; line; col ]
  end
  else instr b Exec.op_getfield [ fix; line; col ]

let emit_binop cx b bop line col =
  let p = prev_op b in
  (if p = Exec.op_const && b.last2 >= 0 && b.bc.(b.last2) = Exec.op_thisf
   then begin
     (* three-wide rewrite: THISF;CONST;BINOP → TFCB *)
     let wc = take_prev b in
     let wt = take_prev b in
     let t4 = b.pending in
     b.pending <- 0;
     raw b
       [ Exec.op_tfcb; wt.(1); wt.(2); wt.(3); wt.(4); wt.(5); wc.(1); wc.(2);
         t4; bop; line; col ]
   end
   else if p = Exec.op_const then begin
     let w = take_prev b in
     let t2 = b.pending in
     b.pending <- 0;
     raw b [ Exec.op_constb; w.(1); w.(2); t2; bop; line; col ]
   end
   else if p = Exec.op_load then begin
     let w = take_prev b in
     let t2 = b.pending in
     b.pending <- 0;
     raw b [ Exec.op_loadb; w.(1); w.(2); w.(3); w.(4); w.(5); t2; bop; line; col ]
   end
   else if p = Exec.op_loadc then begin
     (* chained rewrite: LOAD;CONST already fused to LOADC, now absorb
        the operator too — both operands stay in OCaml locals *)
     let w = take_prev b in
     let t3 = b.pending in
     b.pending <- 0;
     raw b
       [ Exec.op_lcb; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); w.(7); t3; bop;
         line; col ]
   end
   else if p = Exec.op_load2 then begin
     let w = take_prev b in
     let t3 = b.pending in
     b.pending <- 0;
     raw b
       [ Exec.op_llb; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); w.(7); w.(8);
         w.(9); w.(10); t3; bop; line; col ]
   end
   else instr b Exec.op_binop [ bop; line; col ]);
  bump cx b (-1)

(* [vbool (truthy v)] at the end of an and/or arm.  Elided when the
   value on top is already a canonical Bool: after another TRUTHY, or
   after a comparison operator (codes 5..10 return interned Bools).
   Any pending ticks simply ride to the next instruction. *)
let emit_truthy b =
  let p = prev_op b in
  let cmp off = b.bc.(b.last + off) >= 5 in
  if
    p = Exec.op_truthy
    || (p = Exec.op_binop && cmp 2)
    || (p = Exec.op_constb && cmp 4)
    || (p = Exec.op_loadb && cmp 7)
    || (p = Exec.op_lcb && cmp 9)
    || (p = Exec.op_llb && cmp 12)
  then ()
  else instr b Exec.op_truthy []

let emit_fail cx b msg line col =
  instr b Exec.op_fail [ add_str cx msg; line; col ];
  bump cx b 1 (* expression position: keeps linear depth accounting sound *)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec emit_expr cx b (e : Ast.expr) =
  let line = e.Ast.epos.Ast.line and col = e.Ast.epos.Ast.col in
  pend b;
  match e.Ast.e with
  | Ast.Int_lit n -> emit_const cx b (Value.Int n)
  | Ast.Str_lit s -> emit_const cx b (Value.Str s)
  | Ast.Bool_lit v -> emit_const cx b (Value.Bool v)
  | Ast.Null_lit ->
    (* as a pool constant, so [x != null] and [return null] take the
       same fusion paths as literal operands *)
    emit_const cx b Value.Null
  | Ast.This ->
    instr b Exec.op_this [];
    bump cx b 1
  | Ast.Var x -> (
    match Hashtbl.find_opt cx.slots x with
    | Some i -> emit_load cx b i x line col
    | None -> emit_fail cx b (Printf.sprintf "unknown variable %s" x) line col)
  | Ast.Unary (Ast.Neg, a) ->
    emit_expr cx b a;
    instr b Exec.op_neg [ line; col ]
  | Ast.Unary (Ast.Not, a) ->
    emit_expr cx b a;
    instr b Exec.op_not []
  | Ast.Binary (op, a, a2) ->
    emit_expr cx b a;
    emit_expr cx b a2;
    emit_binop cx b (binop_code op) line col
  | Ast.And (a, a2) ->
    (* if truthy a then vbool (truthy a2) else vfalse *)
    let l_false = new_label () and l_end = new_label () in
    emit_expr cx b a;
    jump b Exec.op_jf l_false;
    bump cx b (-1);
    emit_expr cx b a2;
    emit_truthy b;
    jump b Exec.op_jmp l_end;
    bind b l_false;
    emit_const cx b (Value.Bool false);
    bump cx b (-1); (* join: both paths push exactly one value *)
    bind b l_end
  | Ast.Or (a, a2) ->
    let l_rhs = new_label () and l_end = new_label () in
    emit_expr cx b a;
    jump b Exec.op_jf l_rhs;
    bump cx b (-1);
    emit_const cx b (Value.Bool true);
    jump b Exec.op_jmp l_end;
    bind b l_rhs;
    emit_expr cx b a2;
    emit_truthy b;
    bump cx b (-1);
    bind b l_end
  | Ast.Field (r, f) ->
    emit_expr cx b r;
    emit_getfield cx b f line col
  | Ast.Index (r, i) ->
    emit_expr cx b r;
    emit_expr cx b i;
    instr b Exec.op_getidx [ line; col ];
    bump cx b (-1)
  | Ast.Call (r, m, args) -> (
    let lk = cx.lk in
    let site () =
      { Exec.cs_name = m;
        cs_cache = ref ("", -1);
        cs_resolve = (fun cls -> lk.lk_resolve cls m) }
    in
    let n = List.length args in
    match r.Ast.e with
    | Ast.This ->
      (* the receiver push is elided: CALLT reads [this] from the frame;
         the This node's tick rides with the pending counter *)
      pend b;
      List.iter (emit_expr cx b) args;
      instr b Exec.op_callt [ add_call cx (site ()); n ];
      bump cx b (1 - n)
    | _ ->
      emit_expr cx b r;
      List.iter (emit_expr cx b) args;
      instr b Exec.op_call [ add_call cx (site ()); n ];
      bump cx b (-n))
  | Ast.Super_call (m, args) -> (
    match cx.defining with
    | None -> emit_fail cx b "super call outside of a method" line col
    | Some (defining, None) ->
      emit_fail cx b
        (Printf.sprintf "class %s has no superclass" defining)
        line col
    | Some (defining, Some super) ->
      let n = List.length args in
      let idx = cx.lk.lk_resolve super m in
      if idx >= 0 then begin
        List.iter (emit_expr cx b) args;
        instr b Exec.op_super [ idx; n ];
        bump cx b (1 - n)
      end
      else begin
        (* dynamic fallback: the method is looked up *before* the
           arguments are evaluated (a missing method errors without
           evaluating them), so the lookup is its own instruction *)
        let s_sup = add_str cx super in
        let s_m = add_str cx m in
        let s_d = add_str cx defining in
        instr b Exec.op_superck [ s_sup; s_m; s_d; line; col ];
        List.iter (emit_expr cx b) args;
        instr b Exec.op_superdyn [ s_sup; s_m; s_d; line; col; n ];
        bump cx b (1 - n)
      end)
  | Ast.Fn_call (name, args) ->
    List.iter (emit_expr cx b) args;
    let nargs = List.length args in
    let native f = Exec.Native f in
    let target =
      match cx.lk.lk_fn name with
      | Some (arity, fb) ->
        if nargs <> arity then
          native (fun _ _ ->
              raise
                (Exec.Error
                   ( Printf.sprintf "function %s expects %d argument(s), got %d"
                       name arity nargs,
                     line, col )))
        else Exec.Compiled fb
      | None -> (
        match Builtins.find name with
        | Some (arity, f) ->
          if nargs <> arity then
            native (fun _ _ ->
                raise
                  (Exec.Error
                     ( Printf.sprintf "builtin %s: expected %d argument(s), got %d"
                         name arity nargs,
                       line, col )))
          else
            native (fun vm vargs ->
                try f vm vargs
                with Invalid_argument msg -> raise (Exec.Error (msg, line, col)))
        | None ->
          native (fun _ _ ->
              raise (Exec.Error (Printf.sprintf "unknown function %s" name, line, col))))
    in
    let fix = add_fn cx { Exec.fs_name = name; fs_target = target } in
    (if
       nargs >= 2
       && prev_op b = Exec.op_thisf
       && b.last2 >= 0
       && b.bc.(b.last2) = Exec.op_thisf
     then begin
       (* the last two arguments are both bare this.f loads *)
       let wb = take_prev b in
       let wa = take_prev b in
       let t = b.pending in
       b.pending <- 0;
       raw b
         [ Exec.op_fncalltf2; wa.(1); wa.(2); wa.(3); wa.(4); wa.(5); wb.(1);
           wb.(2); wb.(3); wb.(4); wb.(5); fix; nargs; t ]
     end
     else if nargs >= 1 && prev_op b = Exec.op_thisf then begin
       (* the last argument is a bare this.f: fold its load into the call *)
       let w = take_prev b in
       let t3 = b.pending in
       b.pending <- 0;
       raw b
         [ Exec.op_fncalltf; w.(1); w.(2); w.(3); w.(4); w.(5); fix; nargs; t3 ]
     end
     else instr b Exec.op_fncall [ fix; nargs ]);
    bump cx b (1 - nargs)
  | Ast.New (cls, args) ->
    List.iter (emit_expr cx b) args;
    let n = List.length args in
    let site =
      match cx.lk.lk_class cls with
      | None ->
        { Exec.ns_cls = cls; ns_known = false; ns_layout = [||]; ns_init = -1;
          ns_is_exc = false; ns_line = line; ns_col = col }
      | Some ci ->
        { Exec.ns_cls = cls; ns_known = true; ns_layout = ci.ci_layout;
          ns_init = ci.ci_init; ns_is_exc = ci.ci_is_exc; ns_line = line;
          ns_col = col }
    in
    instr b Exec.op_new [ add_new cx site; n ];
    bump cx b (1 - n)
  | Ast.Array_lit elems ->
    List.iter (emit_expr cx b) elems;
    let n = List.length elems in
    instr b Exec.op_array [ n ];
    bump cx b (1 - n)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and emit_stmt cx b (st : Ast.stmt) =
  let line = st.Ast.spos.Ast.line and col = st.Ast.spos.Ast.col in
  pend b;
  match st.Ast.s with
  | Ast.Var_decl (x, e) ->
    emit_expr cx b e;
    instr b Exec.op_store [ Hashtbl.find cx.slots x ];
    bump cx b (-1)
  | Ast.Assign (Ast.Lvar x, e) -> (
    emit_expr cx b e;
    match Hashtbl.find_opt cx.slots x with
    | Some i ->
      let p = prev_op b in
      if p = Exec.op_binop then begin
        let w = take_prev b in
        let t2 = b.pending in
        b.pending <- 0;
        raw b
          [ Exec.op_bsc; w.(1); w.(2); w.(3); w.(4); t2; i; add_str cx x; line;
            col ]
      end
      else if p = Exec.op_lcb then begin
        let w = take_prev b in
        let t4 = b.pending in
        b.pending <- 0;
        raw b
          [ Exec.op_lcbs; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); w.(7);
            w.(8); w.(9); w.(10); w.(11); t4; i; add_str cx x; line; col ]
      end
      else if p = Exec.op_llb then begin
        let w = take_prev b in
        let t4 = b.pending in
        b.pending <- 0;
        raw b
          [ Exec.op_llbs; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); w.(7);
            w.(8); w.(9); w.(10); w.(11); w.(12); w.(13); w.(14); t4; i;
            add_str cx x; line; col ]
      end
      else instr b Exec.op_storechk [ i; add_str cx x; line; col ];
      bump cx b (-1)
    | None ->
      (* the value is computed before the variable is resolved, so its
         side effects and ticks happen before the error *)
      emit_fail cx b (Printf.sprintf "unknown variable %s" x) line col)
  | Ast.Assign (Ast.Lfield (r, f), e) -> (
    match r.Ast.e with
    | Ast.This ->
      (* receiver push elided, as for CALLT *)
      pend b;
      emit_expr cx b e;
      let fix = add_str cx f in
      let p = prev_op b in
      (if p = Exec.op_load then begin
         let w = take_prev b in
         let t2 = b.pending in
         b.pending <- 0;
         raw b
           [ Exec.op_lsetft; w.(1); w.(2); w.(3); w.(4); w.(5); t2; fix; line;
             col ]
       end
       else if p = Exec.op_constb then begin
         let w = take_prev b in
         let t3 = b.pending in
         b.pending <- 0;
         raw b
           [ Exec.op_cbsetft; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); t3;
             fix; line; col ]
       end
       else if p = Exec.op_const then begin
         let w = take_prev b in
         let t2 = b.pending in
         b.pending <- 0;
         raw b [ Exec.op_csetft; w.(1); w.(2); t2; fix; line; col ]
       end
       else instr b Exec.op_setft [ fix; line; col ]);
      bump cx b (-1)
    | _ ->
      emit_expr cx b r;
      emit_expr cx b e;
      instr b Exec.op_setfield [ add_str cx f; line; col ];
      bump cx b (-2))
  | Ast.Assign (Ast.Lindex (r, i), e) ->
    emit_expr cx b r;
    emit_expr cx b i;
    emit_expr cx b e;
    instr b Exec.op_setidx [ line; col ];
    bump cx b (-3)
  | Ast.Expr_stmt e ->
    emit_expr cx b e;
    let p = prev_op b in
    (if p = Exec.op_call || p = Exec.op_fncall || p = Exec.op_callt then begin
       (* a call in statement position never stores its result *)
       let w = take_prev b in
       let fused =
         if p = Exec.op_call then Exec.op_callp
         else if p = Exec.op_fncall then Exec.op_fncallp
         else Exec.op_calltp
       in
       let t2 = b.pending in
       b.pending <- 0;
       raw b [ fused; w.(1); w.(2); w.(3); t2 ]
     end
     else instr b Exec.op_pop []);
    bump cx b (-1)
  | Ast.If (c0, t, f) ->
    let l_else = new_label () and l_end = new_label () in
    emit_expr cx b c0;
    jump b Exec.op_jf l_else;
    bump cx b (-1);
    emit_block cx b t;
    jump b Exec.op_jmp l_end;
    bind b l_else;
    emit_block cx b f;
    bind b l_end
  | Ast.While (c0, body) ->
    let ls_cond = emit_sub cx (fun sb -> emit_expr cx sb c0) in
    let ls_body = emit_sub cx (fun sb -> emit_block cx sb body) in
    instr b Exec.op_while
      [ add_loop cx { Exec.ls_cond; ls_update = [||]; ls_body } ]
  | Ast.For (init, cond, update, body) ->
    (* the loop's own tick, then the init statement, run once before the
       FOR instruction: init precedes the first condition test *)
    Option.iter (emit_stmt cx b) init;
    let ls_cond =
      match cond with
      | None -> [||]
      | Some c0 -> emit_sub cx (fun sb -> emit_expr cx sb c0)
    in
    let ls_update =
      match update with
      | None -> [||]
      | Some u -> emit_sub cx (fun sb -> emit_stmt cx sb u)
    in
    let ls_body = emit_sub cx (fun sb -> emit_block cx sb body) in
    instr b Exec.op_for [ add_loop cx { Exec.ls_cond; ls_update; ls_body } ]
  | Ast.Return None -> instr b Exec.op_retnull []
  | Ast.Return (Some e) ->
    emit_expr cx b e;
    let p = prev_op b in
    (if p = Exec.op_binop then begin
       let w = take_prev b in
       let t2 = b.pending in
       b.pending <- 0;
       raw b [ Exec.op_bret; w.(1); w.(2); w.(3); w.(4); t2 ]
     end
     else if p = Exec.op_load then begin
       let w = take_prev b in
       let t2 = b.pending in
       b.pending <- 0;
       raw b [ Exec.op_lret; w.(1); w.(2); w.(3); w.(4); w.(5); t2 ]
     end
     else if p = Exec.op_null then begin
       let w = take_prev b in
       let t2 = b.pending in
       b.pending <- 0;
       raw b [ Exec.op_nret; w.(1); t2 ]
     end
     else if p = Exec.op_thisf then begin
       let w = take_prev b in
       let t3 = b.pending in
       b.pending <- 0;
       raw b [ Exec.op_tfret; w.(1); w.(2); w.(3); w.(4); w.(5); t3 ]
     end
     else if p = Exec.op_lcb then begin
       let w = take_prev b in
       let t4 = b.pending in
       b.pending <- 0;
       raw b
         [ Exec.op_lcbr; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); w.(7); w.(8);
           w.(9); w.(10); w.(11); t4 ]
     end
     else if p = Exec.op_llb then begin
       let w = take_prev b in
       let t4 = b.pending in
       b.pending <- 0;
       raw b
         [ Exec.op_llbr; w.(1); w.(2); w.(3); w.(4); w.(5); w.(6); w.(7); w.(8);
           w.(9); w.(10); w.(11); w.(12); w.(13); w.(14); t4 ]
     end
     else if p = Exec.op_const then begin
       let w = take_prev b in
       let t2 = b.pending in
       b.pending <- 0;
       raw b [ Exec.op_cret; w.(1); w.(2); t2 ]
     end
     else if p = Exec.op_this then begin
       let w = take_prev b in
       let t2 = b.pending in
       b.pending <- 0;
       raw b [ Exec.op_tret; w.(1); t2 ]
     end
     else instr b Exec.op_ret []);
    bump cx b (-1)
  | Ast.Throw e ->
    emit_expr cx b e;
    instr b Exec.op_throw [ line; col ];
    bump cx b (-1)
  | Ast.Try (body, catches, fin) ->
    let ts_body = emit_sub cx (fun sb -> emit_block cx sb body) in
    let ts_catches =
      Array.of_list
        (List.map
           (fun c ->
             ( c.Ast.cc_class,
               Hashtbl.find cx.slots c.Ast.cc_var,
               emit_sub cx (fun sb -> emit_block cx sb c.Ast.cc_body) ))
           catches)
    in
    let ts_fin =
      match fin with
      | None -> [||]
      | Some f -> emit_sub cx (fun sb -> emit_block cx sb f)
    in
    instr b Exec.op_try [ add_try cx { Exec.ts_body; ts_catches; ts_fin } ]
  | Ast.Break -> instr b Exec.op_break []
  | Ast.Continue -> instr b Exec.op_cont []
  | Ast.Block body -> emit_block cx b body

and emit_block cx b body = List.iter (emit_stmt cx b) body

(* A nested sub-block (loop condition/update/body, try body, handler,
   finally): its own instruction array, executed at the frame's base
   stack pointer. *)
and emit_sub cx f =
  let sb = new_blk () in
  f sb;
  ignore (bump cx sb 0);
  finish sb

(* ------------------------------------------------------------------ *)
(* Scope resolution                                                    *)
(* ------------------------------------------------------------------ *)

(* One slot per distinct variable name in a body: parameters first,
   then every [var] declaration and every catch variable, in source
   order.  MiniLang scoping is function-level, so name identity is
   exactly slot identity. *)
let build_slots params body =
  let slots = Hashtbl.create 16 in
  let n = ref 0 in
  let add x =
    if not (Hashtbl.mem slots x) then begin
      Hashtbl.add slots x !n;
      incr n
    end
  in
  let rec walk_stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Var_decl (x, _) -> add x
    | Ast.If (_, t, f) ->
      walk_block t;
      walk_block f
    | Ast.While (_, b) -> walk_block b
    | Ast.For (i, _, u, b) ->
      Option.iter walk_stmt i;
      Option.iter walk_stmt u;
      walk_block b
    | Ast.Try (b, catches, fin) ->
      walk_block b;
      List.iter
        (fun c ->
          add c.Ast.cc_var;
          walk_block c.Ast.cc_body)
        catches;
      Option.iter walk_block fin
    | Ast.Block b -> walk_block b
    | Ast.Assign _ | Ast.Expr_stmt _ | Ast.Return _ | Ast.Throw _ | Ast.Break
    | Ast.Continue -> ()
  and walk_block b = List.iter walk_stmt b in
  List.iter add params;
  walk_block body;
  (slots, !n)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let compile_body lk ~defining params body =
  let slots, n_slots = build_slots params body in
  let cx = make_cx lk slots defining in
  let b = new_blk () in
  emit_block cx b body;
  let main = finish b in
  let code =
    { Exec.c_env =
        { Exec.env_is_exc = lk.lk_is_exc; env_exn_matches = lk.lk_exn_matches };
      c_main = main;
      c_consts = Array.of_list (List.rev cx.consts_rev);
      c_strs = Array.of_list (List.rev cx.strs_rev);
      c_calls = Array.of_list (List.rev cx.calls_rev);
      c_fns = Array.of_list (List.rev cx.fns_rev);
      c_news = Array.of_list (List.rev cx.news_rev);
      c_loops = Array.of_list (List.rev cx.loops_rev);
      c_trys = Array.of_list (List.rev cx.trys_rev);
      c_nslots = n_slots;
      c_stack = n_slots + cx.max_stack + 1 }
  in
  let param_slots = Array.of_list (List.map (Hashtbl.find slots) params) in
  (code, param_slots)

let compile_method_code lk ~cls_name ~defining_super (m : Ast.meth_decl) =
  compile_body lk ~defining:(Some (cls_name, defining_super)) m.Ast.m_params
    m.Ast.m_body

let compile_method lk ~cls_name ~defining_super (m : Ast.meth_decl) : Exec.mbody =
  let code, param_slots = compile_method_code lk ~cls_name ~defining_super m in
  { Exec.mb_code = code;
    mb_params = param_slots;
    mb_cls = cls_name;
    mb_name = m.Ast.m_name;
    mb_line = m.Ast.m_pos.Ast.line;
    mb_col = m.Ast.m_pos.Ast.col }

(* Call sites check arity; a direct mismatched application (e.g. a
   parameterised main) raises Invalid_argument "List.iter2" (see
   Exec.function_impl). *)
let compile_function lk (f : Ast.func_decl) (fb : Exec.fbody) =
  let code, param_slots = compile_body lk ~defining:None f.Ast.f_params f.Ast.f_body in
  fb.Exec.fb_code <- code;
  fb.Exec.fb_params <- param_slots
