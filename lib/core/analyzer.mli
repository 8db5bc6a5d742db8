(** Static analysis of the target program (paper §4.1, Step 1).

    Determines, for every method, the set of exceptions its injection
    wrapper may throw — the declared [throws] clause plus the configured
    generic runtime exceptions — and inventories classes and methods for
    the Table 1 statistics. *)

open Failatom_minilang

type method_info = {
  id : Method_id.t;
  params : string list;
  declared_throws : string list;
  injectable : string list;  (** declared + generic runtime exceptions *)
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

val analyze : ?flow:Exnflow.t -> Config.t -> Ast.program -> t
(** [flow] (passed by {!Detect} under [--prune drop], the one static
    skip mode) filters generic runtime exceptions a method provably
    cannot raise out of its injectable set; declared [throws] classes
    always keep their points.  Without it the injectable sets are
    exactly the paper's. *)

val find : t -> Method_id.t -> method_info option

val injectable_for : t -> Method_id.t -> string list
(** Injectable exception classes of a method; [[]] if unknown. *)

val method_ids : t -> Method_id.t list

val class_of_method : Method_id.t -> string
(** Defining class, for class-level statistics. *)
