(* Static exception-flow analysis over a compiled image.

   This answers the future work of the paper's §4.3 (skip injections a
   method cannot experience instead of relying on user annotations),
   in the style of the pushdown exception-flow analyses of Liang &
   Might: instead of one bit ("may this method throw?") keyed by
   method name, as the syntactic baseline the tests keep does, we
   compute

   - a per-callable MAY-RAISE set — which exception classes can
     escape an invocation — as a fixpoint over the call graph, with
     dynamic dispatch resolved through the image's flattened dispatch
     tables ({!Compile.dispatch_targets}) rather than by bare name;

   - a per-method ACTIVE-HANDLER summary H(M) — which catch clauses
     of the plain program can be live on the stack when an exception
     is raised at M's entry — as a second fixpoint that pushes the
     clause sets guarding each call site down the call graph;

   - a per-clause BLINDNESS verdict — whether the handler body can
     observe anything about a caught exception beyond its object
     identity and its field contents.

   Together these justify the two pruning modes of [Prune]/[Detect]:
   dropping generic injections whose class is outside the method's
   may-raise set (the paper's "exception-free" annotation, now
   inferred per class), and
   coalescing injected classes that every possibly-active handler is
   blind to, so one representative run stands for the whole class.

   The analysis runs on the PLAIN program (before source weaving):
   the woven wrapper handlers are `catch (Throwable) { snapshot;
   mark; rethrow }`, which are blind by construction — they never
   branch on the exception's class — so they are covered axiomatically
   and never appear in H(M).

   Model boundaries (shared with the syntactic baseline, documented in
   doc/exnflow.md): stack exhaustion ([StackOverflowError]) is outside
   the lattice — any call could overflow, so tracking it would make
   every set the universe; {!can_raise} therefore answers [true] for
   it unconditionally.  Allocation failure ([OutOfMemoryError]) is
   charged to [new] expressions, [newArray] and constructor entries,
   matching where the paper injects it. *)

open Failatom_minilang
module S = Set.Make (String)
module IS = Set.Make (Int)

let npe = "NullPointerException"
let ioob = "IndexOutOfBoundsException"
let oom = "OutOfMemoryError"
let uoe = "UnsupportedOperationException"
let arith = "ArithmeticException"
let soe = "StackOverflowError"

type callable = K_meth of Method_id.t | K_func of string

(* What a handler body can learn about the exception bound to its
   catch variable: [Blind reads] — nothing beyond object identity and
   the listed fields; [Opaque] — possibly its class. *)
type blindness = Blind of S.t | Opaque

type clause_info = { cl_class : string; cl_blind : blindness }

type t = {
  img : Compile.image;
  universe : S.t; (* every exception class of the image *)
  layouts : (string, string list) Hashtbl.t; (* class -> field template *)
  may : (callable, S.t) Hashtbl.t;
  handlers : (callable, IS.t) Hashtbl.t; (* H: clauses live at entry *)
  clauses : clause_info array;
  meths : Method_id.t list; (* analyzed methods, program order *)
}

let is_this (e : Ast.expr) = match e.Ast.e with Ast.This -> true | _ -> false

(* MiniLang exceptions a builtin call can raise ([None]: not a known
   builtin).  Kept consistent with the syntactic baseline's safe
   builtins (test/purity.ml): every safe builtin maps to the empty set
   and every other builtin to a non-empty one, so the never-throws set here can only grow relative
   to the syntactic analysis — the subsumption that
   [test_exnflow.ml]'s precision test checks. *)
let builtin_raises = function
  | "len" -> Some [ "IllegalArgumentException"; npe ]
  | "newArray" -> Some [ "NegativeArraySizeException"; oom ]
  | "arraycopy" -> Some [ ioob; npe; "IllegalArgumentException" ]
  | "charAt" | "ord" | "substr" -> Some [ ioob ]
  | "chr" | "parseInt" -> Some [ "IllegalArgumentException" ]
  | "check" -> Some [ "IllegalStateException" ]
  | "print" | "println" | "str" | "hashCode" | "abs" | "min" | "max"
  | "instanceOf" | "classOf" | "graphEq" | "deepCopy" | "strcmp" ->
    Some []
  | _ -> None

(* Does [block] assign or redeclare [name] anywhere (including nested
   catch clauses that rebind it)?  Used to invalidate the catch-var
   environment: MiniLang locals are method-level slots, so any write
   breaks the binding. *)
let binds_name (block : Ast.block) name =
  let hit = ref false in
  let rec stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Var_decl (x, _) -> if String.equal x name then hit := true
    | Ast.Assign (Ast.Lvar x, _) -> if String.equal x name then hit := true
    | Ast.Assign (_, _) | Ast.Expr_stmt _ | Ast.Return _ | Ast.Throw _
    | Ast.Break | Ast.Continue ->
      ()
    | Ast.If (_, a, b) ->
      walk a;
      walk b
    | Ast.While (_, b) | Ast.Block b -> walk b
    | Ast.For (i, _, u, b) ->
      Option.iter stmt i;
      Option.iter stmt u;
      walk b
    | Ast.Try (b, catches, fin) ->
      walk b;
      List.iter
        (fun (c : Ast.catch_clause) ->
          if String.equal c.Ast.cc_var name then hit := true;
          walk c.Ast.cc_body)
        catches;
      Option.iter walk fin
  and walk b = List.iter stmt b in
  walk block;
  !hit

(* Is [name] read, written or redeclared anywhere in the callable body
   OUTSIDE catch-clause bodies that bind it?  (A sibling handler of
   the same name rebinds the slot on entry, so its uses are governed
   by its own blindness check; any other occurrence observes the slot
   left behind by the handler and makes the clause unanalyzable.) *)
let uses_name_outside (body : Ast.block) name =
  let hit = ref false in
  let rec expr (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Var x -> if String.equal x name then hit := true
    | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Bool_lit _ | Ast.Null_lit | Ast.This
      ->
      ()
    | Ast.Unary (_, a) -> expr a
    | Ast.Binary (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
      expr a;
      expr b
    | Ast.Field (r, _) -> expr r
    | Ast.Index (r, i) ->
      expr r;
      expr i
    | Ast.Call (r, _, args) ->
      expr r;
      List.iter expr args
    | Ast.Super_call (_, args)
    | Ast.Fn_call (_, args)
    | Ast.New (_, args)
    | Ast.Array_lit args ->
      List.iter expr args
  in
  let lvalue = function
    | Ast.Lvar x -> if String.equal x name then hit := true
    | Ast.Lfield (r, _) -> expr r
    | Ast.Lindex (r, i) ->
      expr r;
      expr i
  in
  let rec stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Var_decl (x, e) ->
      if String.equal x name then hit := true;
      expr e
    | Ast.Assign (l, e) ->
      lvalue l;
      expr e
    | Ast.Expr_stmt e -> expr e
    | Ast.If (c, a, b) ->
      expr c;
      walk a;
      walk b
    | Ast.While (c, b) ->
      expr c;
      walk b
    | Ast.For (i, c, u, b) ->
      Option.iter stmt i;
      Option.iter expr c;
      Option.iter stmt u;
      walk b
    | Ast.Return e -> Option.iter expr e
    | Ast.Throw e -> expr e
    | Ast.Try (b, catches, fin) ->
      walk b;
      List.iter
        (fun (c : Ast.catch_clause) ->
          if not (String.equal c.Ast.cc_var name) then walk c.Ast.cc_body)
        catches;
      Option.iter walk fin
    | Ast.Break | Ast.Continue -> ()
    | Ast.Block b -> walk b
  and walk b = List.iter stmt b in
  walk body;
  !hit

(* Blindness of one catch clause.  The handler may, without observing
   the exception's class:
   - rethrow the bare variable (outside any [try] nested in the
     handler — an inner catch would discriminate);
   - read its fields ([v.message] is the same ["injected"] string for
     every injected class);
   - use it as an operand of an arithmetic/comparison/logical operator
     or as the argument of [print]/[println]/[str] (display of a
     reference is ["#id"], which never mentions the class).
   Anything else — storing it, passing it to other calls or builtins
   ([instanceOf], [classOf], [graphEq] all discriminate), indexing,
   shadowing — is [Opaque]. *)
let clause_blindness (callable_body : Ast.block) (cl : Ast.catch_clause) :
    clause_info =
  let v = cl.Ast.cc_var in
  if uses_name_outside callable_body v then
    { cl_class = cl.Ast.cc_class; cl_blind = Opaque }
  else begin
    let fields = ref S.empty and opaque = ref false in
    let try_depth = ref 0 in
    let rec wexpr (e : Ast.expr) =
      match e.Ast.e with
      | Ast.Var x when String.equal x v -> opaque := true
      | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Bool_lit _ | Ast.Null_lit
      | Ast.This | Ast.Var _ ->
        ()
      | Ast.Field ({ e = Ast.Var x; _ }, f) when String.equal x v ->
        fields := S.add f !fields
      | Ast.Unary (_, a) -> warg a
      | Ast.Binary (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
        warg a;
        warg b
      | Ast.Fn_call (("print" | "println" | "str"), [ a ]) -> warg a
      | Ast.Field (r, _) -> wexpr r
      | Ast.Index (r, i) ->
        wexpr r;
        wexpr i
      | Ast.Call (r, _, args) ->
        wexpr r;
        List.iter wexpr args
      | Ast.Super_call (_, args)
      | Ast.Fn_call (_, args)
      | Ast.New (_, args)
      | Ast.Array_lit args ->
        List.iter wexpr args
    and warg (a : Ast.expr) =
      (* operand position: identity may flow, the class may not *)
      match a.Ast.e with
      | Ast.Var x when String.equal x v -> ()
      | _ -> wexpr a
    in
    let wlvalue = function
      | Ast.Lvar x -> if String.equal x v then opaque := true
      | Ast.Lfield (r, _) -> wexpr r
      | Ast.Lindex (r, i) ->
        wexpr r;
        wexpr i
    in
    let rec wstmt (st : Ast.stmt) =
      match st.Ast.s with
      | Ast.Throw { e = Ast.Var x; _ } when String.equal x v ->
        if !try_depth > 0 then opaque := true
      | Ast.Var_decl (x, e) ->
        if String.equal x v then opaque := true;
        wexpr e
      | Ast.Assign (l, e) ->
        wlvalue l;
        wexpr e
      | Ast.Expr_stmt e | Ast.Throw e -> wexpr e
      | Ast.If (c, a, b) ->
        wexpr c;
        wblock a;
        wblock b
      | Ast.While (c, b) ->
        wexpr c;
        wblock b
      | Ast.For (i, c, u, b) ->
        Option.iter wstmt i;
        Option.iter wexpr c;
        Option.iter wstmt u;
        wblock b
      | Ast.Return e -> Option.iter wexpr e
      | Ast.Try (b, catches, fin) ->
        incr try_depth;
        wblock b;
        decr try_depth;
        List.iter
          (fun (c : Ast.catch_clause) ->
            if String.equal c.Ast.cc_var v then opaque := true
            else wblock c.Ast.cc_body)
          catches;
        Option.iter wblock fin
      | Ast.Break | Ast.Continue -> ()
      | Ast.Block b -> wblock b
    and wblock b = List.iter wstmt b in
    wblock cl.Ast.cc_body;
    { cl_class = cl.Ast.cc_class;
      cl_blind = (if !opaque then Opaque else Blind !fields) }
  end

let analyze (img : Compile.image) (program : Ast.program) : t =
  let summaries = Compile.image_classes img in
  let layouts = Hashtbl.create 32 in
  List.iter
    (fun (cs : Compile.class_summary) ->
      Hashtbl.replace layouts cs.Compile.cs_name cs.Compile.cs_fields)
    summaries;
  let universe =
    List.fold_left
      (fun acc (cs : Compile.class_summary) ->
        if cs.Compile.cs_is_exception then S.add cs.Compile.cs_name acc
        else acc)
      S.empty summaries
  in
  let subtree_tbl = Hashtbl.create 16 in
  let subtree cls =
    match Hashtbl.find_opt subtree_tbl cls with
    | Some s -> s
    | None ->
      let s = S.filter (fun c -> Compile.image_is_subclass img c cls) universe in
      Hashtbl.replace subtree_tbl cls s;
      s
  in
  (* callable bodies, duplicates kept (a redeclared method contributes
     both bodies to its id's set — conservative) *)
  let meth_bodies : (Method_id.t * Ast.block) list =
    List.concat_map
      (function
        | Ast.Class_decl c ->
          List.map
            (fun (m : Ast.meth_decl) ->
              (Method_id.make c.Ast.c_name m.Ast.m_name, m.Ast.m_body))
            c.Ast.c_methods
        | Ast.Func_decl _ -> [])
      program
  in
  let func_bodies : (string * Ast.block) list =
    List.filter_map
      (function
        | Ast.Func_decl f -> Some (f.Ast.f_name, f.Ast.f_body)
        | Ast.Class_decl _ -> None)
      program
  in
  let meths =
    let seen = Hashtbl.create 32 in
    List.filter
      (fun (id : Method_id.t) ->
        if Hashtbl.mem seen id then false
        else begin
          Hashtbl.replace seen id ();
          true
        end)
      (List.map fst meth_bodies)
  in
  let targets_tbl = Hashtbl.create 32 in
  let targets mname =
    match Hashtbl.find_opt targets_tbl mname with
    | Some t -> t
    | None ->
      let t =
        List.map
          (fun cls -> K_meth (Method_id.make cls mname))
          (Compile.dispatch_targets img mname)
      in
      Hashtbl.replace targets_tbl mname t;
      t
  in
  let init_target cls =
    match Compile.resolve_dispatch img cls "init" with
    | Some d -> [ K_meth (Method_id.make d "init") ]
    | None -> [] (* no constructor body: only the allocation itself *)
  in
  (* ---------------- may-raise fixpoint ---------------- *)
  let may : (callable, S.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (id, _) -> Hashtbl.replace may (K_meth id) S.empty) meth_bodies;
  List.iter (fun (f, _) -> Hashtbl.replace may (K_func f) S.empty) func_bodies;
  let lookup k =
    match Hashtbl.find_opt may k with Some s -> s | None -> universe
  in
  let callables_may ks =
    List.fold_left (fun acc k -> S.union acc (lookup k)) S.empty ks
  in
  let call_may mname =
    match targets mname with [] -> universe | ks -> callables_may ks
  in
  let fn_may f =
    if Builtins.exists f then
      match builtin_raises f with
      | Some l -> S.of_list l
      | None -> universe (* builtin outside the table: assume the worst *)
    else lookup (K_func f)
  in
  (* [env] binds catch variables in scope to the classes they can hold,
     for precise rethrows. *)
  let rec expr_r env (e : Ast.expr) : S.t =
    match e.Ast.e with
    | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Bool_lit _ | Ast.Null_lit | Ast.This
    | Ast.Var _ ->
      S.empty
    | Ast.Unary (_, a) -> expr_r env a
    | Ast.Binary (op, a, b) ->
      let s = S.union (expr_r env a) (expr_r env b) in
      (match op with Ast.Div | Ast.Mod -> S.add arith s | _ -> s)
    | Ast.And (a, b) | Ast.Or (a, b) ->
      S.union (expr_r env a) (expr_r env b)
    | Ast.Field (r, _) ->
      let s = expr_r env r in
      if is_this r then s else S.add npe s
    | Ast.Index (r, i) ->
      S.add npe (S.add ioob (S.union (expr_r env r) (expr_r env i)))
    | Ast.Call (r, m, args) ->
      let s =
        List.fold_left
          (fun acc a -> S.union acc (expr_r env a))
          (S.union (expr_r env r) (call_may m))
          args
      in
      if is_this r then s else S.add npe (S.add uoe s)
    | Ast.Super_call (m, args) ->
      List.fold_left (fun acc a -> S.union acc (expr_r env a)) (call_may m) args
    | Ast.Fn_call (f, args) ->
      List.fold_left (fun acc a -> S.union acc (expr_r env a)) (fn_may f) args
    | Ast.New (c, args) ->
      let init =
        match init_target c with [] -> S.empty | ks -> callables_may ks
      in
      List.fold_left
        (fun acc a -> S.union acc (expr_r env a))
        (S.add oom init) args
    | Ast.Array_lit elems ->
      List.fold_left (fun acc a -> S.union acc (expr_r env a)) S.empty elems
  in
  let lvalue_r env = function
    | Ast.Lvar _ -> S.empty
    | Ast.Lfield (r, _) ->
      let s = expr_r env r in
      if is_this r then s else S.add npe s
    | Ast.Lindex (r, i) ->
      S.add npe (S.add ioob (S.union (expr_r env r) (expr_r env i)))
  in
  let rec stmt_r env (st : Ast.stmt) : S.t =
    match st.Ast.s with
    | Ast.Var_decl (_, e) | Ast.Expr_stmt e -> expr_r env e
    | Ast.Assign (l, e) -> S.union (lvalue_r env l) (expr_r env e)
    | Ast.If (c, a, b) ->
      S.union (expr_r env c) (S.union (block_r env a) (block_r env b))
    | Ast.While (c, b) -> S.union (expr_r env c) (block_r env b)
    | Ast.For (init, cond, update, b) ->
      let s = match init with Some st -> stmt_r env st | None -> S.empty in
      let s = match cond with Some e -> S.union s (expr_r env e) | None -> s in
      let s =
        match update with Some st -> S.union s (stmt_r env st) | None -> s
      in
      S.union s (block_r env b)
    | Ast.Return e -> (
      match e with Some e -> expr_r env e | None -> S.empty)
    | Ast.Throw e -> (
      let eval = expr_r env e in
      match e.Ast.e with
      | Ast.New (c, _) -> if S.mem c universe then S.add c eval else eval
      | Ast.Var x -> (
        match List.assoc_opt x env with
        | Some bound -> S.union bound eval
        | None -> S.union universe eval)
      | _ -> S.union universe eval)
    | Ast.Try (b, catches, fin) ->
      let body = block_r env b in
      let escaping =
        List.fold_left
          (fun acc (c : Ast.catch_clause) ->
            S.diff acc (subtree c.Ast.cc_class))
          body catches
      in
      let handler_raises =
        List.fold_left
          (fun acc (c : Ast.catch_clause) ->
            let env' =
              if binds_name c.Ast.cc_body c.Ast.cc_var then env
              else
                (c.Ast.cc_var, S.inter body (subtree c.Ast.cc_class)) :: env
            in
            S.union acc (block_r env' c.Ast.cc_body))
          S.empty catches
      in
      let fin_raises =
        match fin with Some b -> block_r env b | None -> S.empty
      in
      S.union escaping (S.union handler_raises fin_raises)
    | Ast.Break | Ast.Continue -> S.empty
    | Ast.Block b -> block_r env b
  and block_r env b =
    List.fold_left (fun acc st -> S.union acc (stmt_r env st)) S.empty b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let update k raises =
      let cur = Hashtbl.find may k in
      if not (S.subset raises cur) then begin
        Hashtbl.replace may k (S.union cur raises);
        changed := true
      end
    in
    List.iter
      (fun ((id : Method_id.t), body) ->
        let r = block_r [] body in
        (* a constructor entry is an allocation site in the paper's
           fault model even when its body cannot raise *)
        let r =
          if String.equal id.Method_id.name "init" then S.add oom r else r
        in
        update (K_meth id) r)
      meth_bodies;
    List.iter (fun (f, body) -> update (K_func f) (block_r [] body)) func_bodies
  done;
  (* ---------------- clause collection + H fixpoint ---------------- *)
  let clause_infos = ref [] in
  let n_clauses = ref 0 in
  let edges = ref [] in
  let collect_callable key body =
    let local = ref [] in
    let add_edge stack callees =
      if callees <> [] then edges := (key, stack, callees) :: !edges
    in
    let rec expr_c stack (e : Ast.expr) =
      match e.Ast.e with
      | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Bool_lit _ | Ast.Null_lit
      | Ast.This | Ast.Var _ ->
        ()
      | Ast.Unary (_, a) -> expr_c stack a
      | Ast.Binary (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
        expr_c stack a;
        expr_c stack b
      | Ast.Field (r, _) -> expr_c stack r
      | Ast.Index (r, i) ->
        expr_c stack r;
        expr_c stack i
      | Ast.Call (r, m, args) ->
        add_edge stack (targets m);
        expr_c stack r;
        List.iter (expr_c stack) args
      | Ast.Super_call (m, args) ->
        add_edge stack (targets m);
        List.iter (expr_c stack) args
      | Ast.Fn_call (f, args) ->
        if not (Builtins.exists f) then add_edge stack [ K_func f ];
        List.iter (expr_c stack) args
      | Ast.New (c, args) ->
        add_edge stack (init_target c);
        List.iter (expr_c stack) args
      | Ast.Array_lit elems -> List.iter (expr_c stack) elems
    in
    let lvalue_c stack = function
      | Ast.Lvar _ -> ()
      | Ast.Lfield (r, _) -> expr_c stack r
      | Ast.Lindex (r, i) ->
        expr_c stack r;
        expr_c stack i
    in
    let rec stmt_c stack (st : Ast.stmt) =
      match st.Ast.s with
      | Ast.Var_decl (_, e) | Ast.Expr_stmt e | Ast.Throw e -> expr_c stack e
      | Ast.Assign (l, e) ->
        lvalue_c stack l;
        expr_c stack e
      | Ast.If (c, a, b) ->
        expr_c stack c;
        block_c stack a;
        block_c stack b
      | Ast.While (c, b) ->
        expr_c stack c;
        block_c stack b
      | Ast.For (i, c, u, b) ->
        Option.iter (stmt_c stack) i;
        Option.iter (expr_c stack) c;
        Option.iter (stmt_c stack) u;
        block_c stack b
      | Ast.Return e -> Option.iter (expr_c stack) e
      | Ast.Try (b, catches, fin) ->
        let inner =
          List.fold_left
            (fun acc (cl : Ast.catch_clause) ->
              let cid = !n_clauses in
              incr n_clauses;
              local := (cid, cl) :: !local;
              IS.add cid acc)
            stack catches
        in
        block_c inner b;
        (* handler and finally bodies are not protected by this try *)
        List.iter
          (fun (cl : Ast.catch_clause) -> block_c stack cl.Ast.cc_body)
          catches;
        Option.iter (block_c stack) fin
      | Ast.Break | Ast.Continue -> ()
      | Ast.Block b -> block_c stack b
    and block_c stack b = List.iter (stmt_c stack) b in
    block_c IS.empty body;
    List.iter
      (fun (cid, cl) -> clause_infos := (cid, clause_blindness body cl) :: !clause_infos)
      !local
  in
  List.iter (fun (id, body) -> collect_callable (K_meth id) body) meth_bodies;
  List.iter (fun (f, body) -> collect_callable (K_func f) body) func_bodies;
  let clauses = Array.make !n_clauses { cl_class = ""; cl_blind = Opaque } in
  List.iter (fun (cid, info) -> clauses.(cid) <- info) !clause_infos;
  let handlers : (callable, IS.t) Hashtbl.t = Hashtbl.create 64 in
  let h_lookup k =
    match Hashtbl.find_opt handlers k with Some s -> s | None -> IS.empty
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (caller, stack, callees) ->
        let inflow = IS.union stack (h_lookup caller) in
        List.iter
          (fun callee ->
            let cur = h_lookup callee in
            if not (IS.subset inflow cur) then begin
              Hashtbl.replace handlers callee (IS.union cur inflow);
              changed := true
            end)
          callees)
      !edges
  done;
  { img; universe; layouts; may; handlers; clauses; meths }

(* ---------------- queries ---------------- *)

let universe t = S.elements t.universe
let methods t = t.meths

let may_raise_set t id =
  match Hashtbl.find_opt t.may (K_meth id) with
  | Some s -> s
  | None -> t.universe (* unknown method: assume the worst *)

let may_raise t id = S.elements (may_raise_set t id)

let can_raise t id cls =
  String.equal cls soe (* stack exhaustion is outside the lattice *)
  || S.mem cls (may_raise_set t id)

let never_throws t =
  List.fold_left
    (fun acc id ->
      if S.is_empty (may_raise_set t id) then Method_id.Set.add id acc else acc)
    Method_id.Set.empty t.meths

let handler_clause_count t id =
  match Hashtbl.find_opt t.handlers (K_meth id) with
  | Some s -> IS.cardinal s
  | None -> 0

let blind_pair t id e1 e2 =
  String.equal e1 e2
  || match (Hashtbl.find_opt t.layouts e1, Hashtbl.find_opt t.layouts e2) with
     | Some l1, Some l2 ->
       (* equal layouts: allocation and snapshot traffic is identical
          in the paired runs, and field reads behave the same *)
       List.equal String.equal l1 l2
       &&
       let fieldset = S.of_list l1 in
       let hs =
         match Hashtbl.find_opt t.handlers (K_meth id) with
         | Some s -> s
         | None -> IS.empty
       in
       IS.for_all
         (fun cid ->
           let cl = t.clauses.(cid) in
           let c1 = Compile.image_is_subclass t.img e1 cl.cl_class
           and c2 = Compile.image_is_subclass t.img e2 cl.cl_class in
           Bool.equal c1 c2
           && ((not c1)
              ||
              match cl.cl_blind with
              | Opaque -> false
              | Blind reads -> S.subset reads fieldset))
         hs
     | _ -> false

let partition t id classes =
  let groups = ref [] in
  List.iter
    (fun e ->
      match List.find_opt (fun (rep, _) -> blind_pair t id rep e) !groups with
      | Some (_, members) -> members := e :: !members
      | None -> groups := !groups @ [ (e, ref [ e ]) ])
    classes;
  List.map (fun (_, members) -> List.rev !members) !groups
