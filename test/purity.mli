(** Syntactic exception-freedom analysis, the precision baseline of
    {!Failatom_core.Exnflow}.

    A conservative syntactic analysis (closed over the call graph, with
    dynamic dispatch approximated by method name) computes the methods
    that provably cannot raise a MiniLang exception.  It errs toward
    MAY-throw.  Detection does not use it: [--prune drop] skips
    impossible injections through {!Failatom_core.Exnflow}, whose
    never-throws set must contain this one on every program
    (test_exnflow.ml checks it). *)

open Failatom_core
open Failatom_minilang

val never_throws_syntactic : Ast.program -> Method_id.Set.t
(** A method may throw if any same-named method anywhere may, and
    try/catch never launders a throwing body. *)
