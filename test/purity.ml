(* Syntactic exception-freedom analysis: the precision baseline of
   the exception-flow analysis (lib/core/exnflow.ml), whose
   never-throws set the tests check contains this one on every
   program.  A conservative analysis computing the set of methods that
   can never raise.

   A method MAY throw if its body contains any of:
   - a [throw] statement;
   - an integer division or modulo (ArithmeticException);
   - an array/string index or an index-sensitive builtin
     (IndexOutOfBoundsException and friends);
   - a field access or method call whose receiver is not literally
     [this] (NullPointerException — [this] is never null);
   - an allocation [new C(...)] (OutOfMemoryError in the paper's model,
     plus whatever the constructor does);
   - a call to a possibly-throwing function, builtin or method — method
     calls are resolved by name over every class of the program, the
     sound over-approximation of dynamic dispatch.

   The set of never-throwing methods is the greatest fixpoint: start
   from "every method without a directly-throwing construct" and remove
   methods whose calls may reach a throwing one.

   The analysis errs toward MAY-throw: a method is never wrongly
   reported exception-free. *)

open Failatom_core
open Failatom_minilang

(* Builtins that can never raise a MiniLang exception. *)
let safe_builtins =
  [ "print"; "println"; "str"; "hashCode"; "abs"; "min"; "max"; "instanceOf";
    "classOf"; "graphEq"; "deepCopy"; "strcmp" ]

let builtin_is_safe name = List.mem name safe_builtins

type callable =
  | Meth of string (* a method name: dispatch may reach any class's method *)
  | Func of string (* a top-level function *)

(* Syntactic effects of one method/function body. *)
type effects = {
  mutable direct_throw : bool; (* a throwing construct appears directly *)
  mutable calls : callable list;
}

let analyze_body (eff : effects) (body : Ast.block) =
  let is_this (e : Ast.expr) = match e.Ast.e with Ast.This -> true | _ -> false in
  let rec expr (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Bool_lit _ | Ast.Null_lit | Ast.This
    | Ast.Var _ ->
      ()
    | Ast.Unary (_, a) -> expr a
    | Ast.Binary ((Ast.Div | Ast.Mod), a, b) ->
      eff.direct_throw <- true;
      expr a;
      expr b
    | Ast.Binary (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
      expr a;
      expr b
    | Ast.Field (r, _) ->
      if not (is_this r) then eff.direct_throw <- true;
      expr r
    | Ast.Index (r, i) ->
      (* bounds are data-dependent: always a potential throw *)
      eff.direct_throw <- true;
      expr r;
      expr i
    | Ast.Call (r, m, args) ->
      if not (is_this r) then eff.direct_throw <- true;
      eff.calls <- Meth m :: eff.calls;
      expr r;
      List.iter expr args
    | Ast.Super_call (m, args) ->
      eff.calls <- Meth m :: eff.calls;
      List.iter expr args
    | Ast.Fn_call (f, args) ->
      if not (builtin_is_safe f) then
        if Builtins.exists f then eff.direct_throw <- true
        else eff.calls <- Func f :: eff.calls;
      List.iter expr args
    | Ast.New (_, args) ->
      (* allocation may fail; the constructor is a call *)
      eff.direct_throw <- true;
      List.iter expr args
    | Ast.Array_lit elems -> List.iter expr elems
  in
  let lvalue = function
    | Ast.Lvar _ -> ()
    | Ast.Lfield (r, _) ->
      if not (is_this r) then eff.direct_throw <- true;
      expr r
    | Ast.Lindex (r, i) ->
      eff.direct_throw <- true;
      expr r;
      expr i
  in
  let rec stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Var_decl (_, e) | Ast.Expr_stmt e -> expr e
    | Ast.Assign (l, e) ->
      lvalue l;
      expr e
    | Ast.If (c, t, f) ->
      expr c;
      block t;
      block f
    | Ast.While (c, b) ->
      expr c;
      block b
    | Ast.For (init, cond, update, b) ->
      Option.iter stmt init;
      Option.iter expr cond;
      Option.iter stmt update;
      block b
    | Ast.Return e -> Option.iter expr e
    | Ast.Throw e ->
      eff.direct_throw <- true;
      expr e
    | Ast.Try (b, catches, fin) ->
      (* conservative: a handler does not prove the body's exceptions
         are contained (catch classes may not cover everything), so the
         try block's effects stand *)
      block b;
      List.iter (fun c -> block c.Ast.cc_body) catches;
      Option.iter block fin
    | Ast.Break | Ast.Continue -> ()
    | Ast.Block b -> block b
  and block b = List.iter stmt b in
  block body

(* The set of methods that can never raise a MiniLang exception,
   computed purely syntactically (dispatch approximated by method
   name).  Kept as the precision baseline: {!Exnflow.never_throws}
   must compute a superset of this on every program, which
   test_exnflow.ml checks. *)
let never_throws_syntactic (program : Ast.program) : Method_id.Set.t =
  (* collect effects per method and per function *)
  let method_effects : (Method_id.t * effects) list =
    List.concat_map
      (fun decl ->
        match decl with
        | Ast.Class_decl c ->
          List.map
            (fun (m : Ast.meth_decl) ->
              let eff = { direct_throw = false; calls = [] } in
              analyze_body eff m.Ast.m_body;
              (Method_id.make c.Ast.c_name m.Ast.m_name, eff))
            c.Ast.c_methods
        | Ast.Func_decl _ -> [])
      program
  in
  let func_effects : (string * effects) list =
    List.filter_map
      (fun decl ->
        match decl with
        | Ast.Func_decl f ->
          let eff = { direct_throw = false; calls = [] } in
          analyze_body eff f.Ast.f_body;
          Some (f.Ast.f_name, eff)
        | Ast.Class_decl _ -> None)
      program
  in
  (* may_throw maps: seeded with direct throws, closed over calls *)
  let meth_may : (string, bool ref) Hashtbl.t = Hashtbl.create 32 in
  (* keyed by method NAME: dynamic dispatch may reach any definition.
     Constructors ([init]) are always may-throw: a constructor call
     models an allocation, and allocation can fail with OutOfMemoryError
     regardless of the constructor body — the paper injects into
     constructor calls for exactly this reason. *)
  List.iter
    (fun ((id : Method_id.t), eff) ->
      let may = eff.direct_throw || String.equal id.Method_id.name "init" in
      match Hashtbl.find_opt meth_may id.Method_id.name with
      | Some cell -> cell := !cell || may
      | None -> Hashtbl.replace meth_may id.Method_id.name (ref may))
    method_effects;
  let func_may : (string, bool ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, eff) -> Hashtbl.replace func_may name (ref eff.direct_throw))
    func_effects;
  let callable_may = function
    | Meth m -> (
      match Hashtbl.find_opt meth_may m with
      | Some cell -> !cell
      | None -> true (* unknown method name: assume the worst *))
    | Func f -> ( match Hashtbl.find_opt func_may f with Some cell -> !cell | None -> true)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let propagate may_table name calls =
      let cell = Hashtbl.find may_table name in
      if (not !cell) && List.exists callable_may calls then begin
        cell := true;
        changed := true
      end
    in
    List.iter
      (fun ((id : Method_id.t), eff) -> propagate meth_may id.Method_id.name eff.calls)
      method_effects;
    List.iter (fun (name, eff) -> propagate func_may name eff.calls) func_effects
  done;
  List.fold_left
    (fun acc ((id : Method_id.t), _) ->
      if !(Hashtbl.find meth_may id.Method_id.name) then acc else Method_id.Set.add id acc)
    Method_id.Set.empty method_effects
