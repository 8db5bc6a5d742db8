(* Pretty-printer for MiniLang.

   The printer is the output side of the source-weaving pipeline: woven
   programs are ASTs, and users inspect them as source text.  The
   invariant checked by the test-suite is that printing then re-parsing
   yields the same tree (up to positions), so parenthesization must be
   exact with respect to the parser's precedence and associativity. *)

let binop_str = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Eq -> "=="
  | Ast.Neq -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

(* Precedence levels; [Or] lowest.  Must mirror {!Parser.precedence}. *)
let lvl_or = 10
let lvl_and = 20
let lvl_binop op =
  match op with
  | Ast.Eq | Ast.Neq -> 30
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 40
  | Ast.Add | Ast.Sub -> 50
  | Ast.Mul | Ast.Div | Ast.Mod -> 60
let lvl_unary = 70
let lvl_postfix = 80

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\000' -> Buffer.add_string buf "\\0"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [pp_expr min_lvl] parenthesizes whenever the expression's own level
   is below the level required by the context. *)
let rec pp_expr min_lvl ppf (e : Ast.expr) =
  let level =
    match e.Ast.e with
    | Ast.Or _ -> lvl_or
    | Ast.And _ -> lvl_and
    | Ast.Binary (op, _, _) -> lvl_binop op
    | Ast.Unary _ -> lvl_unary
    | Ast.Field _ | Ast.Index _ | Ast.Call _ -> lvl_postfix
    | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Bool_lit _ | Ast.Null_lit | Ast.This
    | Ast.Var _ | Ast.Super_call _ | Ast.Fn_call _ | Ast.New _ | Ast.Array_lit _ ->
      100
  in
  let atom ppf () =
    match e.Ast.e with
    | Ast.Int_lit n -> Fmt.int ppf n
    | Ast.Str_lit s -> Fmt.pf ppf "\"%s\"" (escape_string s)
    | Ast.Bool_lit b -> Fmt.bool ppf b
    | Ast.Null_lit -> Fmt.string ppf "null"
    | Ast.This -> Fmt.string ppf "this"
    | Ast.Var x -> Fmt.string ppf x
    (* '||' and '&&' parse right-associatively: the left operand must be
       parenthesized when it is the same connective. *)
    | Ast.Or (a, b) ->
      Fmt.pf ppf "%a || %a" (pp_expr (lvl_or + 1)) a (pp_expr lvl_or) b
    | Ast.And (a, b) ->
      Fmt.pf ppf "%a && %a" (pp_expr (lvl_and + 1)) a (pp_expr lvl_and) b
    | Ast.Binary (op, a, b) ->
      let l = lvl_binop op in
      Fmt.pf ppf "%a %s %a" (pp_expr l) a (binop_str op) (pp_expr (l + 1)) b
    | Ast.Unary (Ast.Neg, a) -> Fmt.pf ppf "-%a" (pp_expr lvl_unary) a
    | Ast.Unary (Ast.Not, a) -> Fmt.pf ppf "!%a" (pp_expr lvl_unary) a
    | Ast.Field (r, f) -> Fmt.pf ppf "%a.%s" (pp_expr lvl_postfix) r f
    | Ast.Index (r, i) -> Fmt.pf ppf "%a[%a]" (pp_expr lvl_postfix) r (pp_expr 0) i
    | Ast.Call (r, m, args) ->
      Fmt.pf ppf "%a.%s(%a)" (pp_expr lvl_postfix) r m pp_args args
    | Ast.Super_call (m, args) -> Fmt.pf ppf "super.%s(%a)" m pp_args args
    | Ast.Fn_call (f, args) -> Fmt.pf ppf "%s(%a)" f pp_args args
    | Ast.New (c, args) -> Fmt.pf ppf "new %s(%a)" c pp_args args
    | Ast.Array_lit elems -> Fmt.pf ppf "[%a]" pp_args elems
  in
  if level < min_lvl then Fmt.pf ppf "(%a)" atom () else atom ppf ()

and pp_args ppf args = Fmt.(list ~sep:(any ", ") (pp_expr 0)) ppf args

let pp_lvalue ppf = function
  | Ast.Lvar x -> Fmt.string ppf x
  | Ast.Lfield (r, f) -> Fmt.pf ppf "%a.%s" (pp_expr lvl_postfix) r f
  | Ast.Lindex (r, i) -> Fmt.pf ppf "%a[%a]" (pp_expr lvl_postfix) r (pp_expr 0) i

let indent_str n = String.make (2 * n) ' '

let rec pp_stmt ind ppf (st : Ast.stmt) =
  let pad = indent_str ind in
  match st.Ast.s with
  | Ast.Var_decl (x, e) -> Fmt.pf ppf "%svar %s = %a;" pad x (pp_expr 0) e
  | Ast.Assign (l, e) -> Fmt.pf ppf "%s%a = %a;" pad pp_lvalue l (pp_expr 0) e
  | Ast.Expr_stmt e -> Fmt.pf ppf "%s%a;" pad (pp_expr 0) e
  | Ast.If (c, t, f) ->
    Fmt.pf ppf "%sif (%a) %a" pad (pp_expr 0) c (pp_block ind) t;
    (match f with
     | [] -> ()
     | [ ({ Ast.s = Ast.If _; _ } as nested) ] ->
       Fmt.pf ppf " else %s" (String.trim (Fmt.str "%a" (pp_stmt ind) nested))
     | _ -> Fmt.pf ppf " else %a" (pp_block ind) f)
  | Ast.While (c, b) -> Fmt.pf ppf "%swhile (%a) %a" pad (pp_expr 0) c (pp_block ind) b
  | Ast.For (init, cond, update, b) ->
    let pp_header_stmt ppf s =
      (* headers are printed without the trailing ';' or indentation *)
      let text = String.trim (Fmt.str "%a" (pp_stmt 0) s) in
      let text =
        if String.length text > 0 && text.[String.length text - 1] = ';' then
          String.sub text 0 (String.length text - 1)
        else text
      in
      Fmt.string ppf text
    in
    Fmt.pf ppf "%sfor (%a; %a; %a) %a" pad
      Fmt.(option pp_header_stmt) init
      Fmt.(option (pp_expr 0)) cond
      Fmt.(option pp_header_stmt) update
      (pp_block ind) b
  | Ast.Return None -> Fmt.pf ppf "%sreturn;" pad
  | Ast.Return (Some e) -> Fmt.pf ppf "%sreturn %a;" pad (pp_expr 0) e
  | Ast.Throw e -> Fmt.pf ppf "%sthrow %a;" pad (pp_expr 0) e
  | Ast.Try (b, catches, fin) ->
    Fmt.pf ppf "%stry %a" pad (pp_block ind) b;
    List.iter
      (fun { Ast.cc_class; cc_var; cc_body } ->
        Fmt.pf ppf " catch (%s %s) %a" cc_class cc_var (pp_block ind) cc_body)
      catches;
    (match fin with
     | None -> ()
     | Some f -> Fmt.pf ppf " finally %a" (pp_block ind) f)
  | Ast.Break -> Fmt.pf ppf "%sbreak;" pad
  | Ast.Continue -> Fmt.pf ppf "%scontinue;" pad
  | Ast.Block b -> Fmt.pf ppf "%s%a" pad (pp_block ind) b

and pp_block ind ppf (b : Ast.block) =
  if b = [] then Fmt.string ppf "{ }"
  else begin
    Fmt.pf ppf "{\n";
    List.iter (fun st -> Fmt.pf ppf "%a\n" (pp_stmt (ind + 1)) st) b;
    Fmt.pf ppf "%s}" (indent_str ind)
  end

let pp_method ind ppf (m : Ast.meth_decl) =
  let pad = indent_str ind in
  let pp_throws ppf = function
    | [] -> ()
    | names -> Fmt.pf ppf " throws %s" (String.concat ", " names)
  in
  Fmt.pf ppf "%smethod %s(%s)%a %a" pad m.Ast.m_name
    (String.concat ", " m.Ast.m_params)
    pp_throws m.Ast.m_throws (pp_block ind) m.Ast.m_body

let pp_class ppf (c : Ast.class_decl) =
  let pp_super ppf = function
    | None -> ()
    | Some s -> Fmt.pf ppf " extends %s" s
  in
  Fmt.pf ppf "class %s%a {\n" c.Ast.c_name pp_super c.Ast.c_super;
  List.iter (fun f -> Fmt.pf ppf "  field %s;\n" f) c.Ast.c_fields;
  List.iter (fun m -> Fmt.pf ppf "%a\n" (pp_method 1) m) c.Ast.c_methods;
  Fmt.pf ppf "}"

let pp_func ppf (f : Ast.func_decl) =
  Fmt.pf ppf "function %s(%s) %a" f.Ast.f_name
    (String.concat ", " f.Ast.f_params)
    (pp_block 0) f.Ast.f_body

let pp_decl ppf = function
  | Ast.Class_decl c -> pp_class ppf c
  | Ast.Func_decl f -> pp_func ppf f

let pp_program ppf (p : Ast.program) =
  List.iter (fun d -> Fmt.pf ppf "%a\n\n" pp_decl d) p

let program_to_string p = Fmt.str "%a" pp_program p
let expr_to_string e = Fmt.str "%a" (pp_expr 0) e
