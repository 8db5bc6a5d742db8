(** Pretty-printer for MiniLang.

    The output side of the source-weaving pipeline: woven programs are
    ASTs, and users inspect them as source text.  Invariant (enforced by
    the test-suite): printing then re-parsing yields the same tree up to
    positions, so parenthesization exactly respects the parser's
    precedence and associativity. *)

val binop_str : Ast.binop -> string

val pp_program : Ast.program Fmt.t
val pp_decl : Ast.decl Fmt.t
val pp_method : int -> Ast.meth_decl Fmt.t
val pp_stmt : int -> Ast.stmt Fmt.t
(** Statements/methods are printed at the given indentation depth. *)

val program_to_string : Ast.program -> string
val expr_to_string : Ast.expr -> string
