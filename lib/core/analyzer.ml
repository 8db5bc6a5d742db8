(* Static analysis of the target program (paper §4.1, Step 1).

   The Analyzer determines, for every method, the set of exceptions an
   injection wrapper must be able to throw: the exceptions declared in
   the method's [throws] clause plus the generic runtime exceptions that
   any method may raise.  It also inventories classes and methods for
   the statistics of Table 1. *)

open Failatom_minilang

type method_info = {
  id : Method_id.t;
  params : string list;
  declared_throws : string list;
  injectable : string list; (* declared + generic runtime exceptions *)
}

type class_info = {
  cls_name : string;
  super : string option;
  fields : string list;
  methods : method_info list;
}

type t = {
  classes : class_info list;
  by_method : method_info Method_id.Map.t;
  program : Ast.program;
}

let analyze ?flow (config : Config.t) (program : Ast.program) : t =
  (* Under [--prune drop] an exception-flow analysis is supplied and
     generic runtime exceptions the method provably cannot raise are
     filtered from its injectable set: testing an impossible exception
     would only produce the conservative false positives of paper §4.3.
     Declared [throws] classes always keep their points: the user
     asserted those faults are possible. *)
  let filter_injectable id declared classes =
    match flow with
    | None -> classes
    | Some flow ->
      List.filter
        (fun e -> List.mem e declared || Exnflow.can_raise flow id e)
        classes
  in
  let analyze_method cls (m : Ast.meth_decl) =
    let id = Method_id.make cls m.Ast.m_name in
    { id;
      params = m.Ast.m_params;
      declared_throws = m.Ast.m_throws;
      injectable =
        filter_injectable id m.Ast.m_throws
          (Config.injectable config ~declared:m.Ast.m_throws) }
  in
  let classes =
    List.filter_map
      (fun decl ->
        match decl with
        | Ast.Class_decl c ->
          Some
            { cls_name = c.Ast.c_name;
              super = c.Ast.c_super;
              fields = c.Ast.c_fields;
              methods = List.map (analyze_method c.Ast.c_name) c.Ast.c_methods }
        | Ast.Func_decl _ -> None)
      program
  in
  let by_method =
    List.fold_left
      (fun acc c ->
        List.fold_left (fun acc mi -> Method_id.Map.add mi.id mi acc) acc c.methods)
      Method_id.Map.empty classes
  in
  { classes; by_method; program }

let find t id = Method_id.Map.find_opt id t.by_method

let injectable_for t id =
  match find t id with Some mi -> mi.injectable | None -> []

let method_ids t = List.map fst (Method_id.Map.bindings t.by_method)

(* The defining class of each user class's superclass chain, for
   class-level statistics. *)
let class_of_method (id : Method_id.t) = id.Method_id.cls
