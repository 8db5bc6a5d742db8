(** Static exception-flow analysis over a compiled image.

    The paper's §4.3 future work — skipping injections a method cannot
    experience instead of relying on user annotations — in the style
    of Liang & Might's pushdown exception-flow analyses: per-method
    {e may-raise} sets closed over the call graph with dispatch
    resolved through the image's flattened dispatch tables, plus a
    per-method {e active-handler} summary — which catch clauses of the
    plain program can be live when an exception is raised at the
    method's entry, and whether each is {e blind} (unable to observe
    the caught exception's class).

    These justify the pruning modes of {!Detect}: generic injections
    whose class is outside the method's may-raise set are dropped
    ([--prune drop], also on concurrent programs: may-raise sets do
    not depend on the interleaving), and injected classes that every
    possibly-active handler is blind to are coalesced into one
    representative run ([--prune coalesce], whose marks are
    bitwise-identical to the unpruned campaign).

    The analysis must be run on the {e plain} program, before source
    weaving: woven wrapper handlers ([catch (Throwable) { snapshot;
    mark; rethrow }]) never branch on the exception's class and are
    covered axiomatically.

    Model boundary: [StackOverflowError] is outside the lattice (any
    call could overflow); {!can_raise} answers [true] for it
    unconditionally, and {!never_throws} ignores it — the convention
    of the syntactic baseline the tests compare against. *)

open Failatom_minilang

type t

val analyze : Compile.image -> Ast.program -> t
(** Runs both fixpoints.  [analyze img program] requires [img] to be
    the image of [program] (or of a superset that preserves its class
    layout, as the plain image does for the woven program). *)

val universe : t -> string list
(** Every exception class of the image (the top of the may-raise
    lattice), sorted. *)

val methods : t -> Method_id.t list
(** The analyzed methods, in program order. *)

val may_raise : t -> Method_id.t -> string list
(** Exception classes that can escape an invocation of the method
    (sorted).  Unknown methods return the full universe. *)

val can_raise : t -> Method_id.t -> string -> bool
(** [can_raise t m e]: may an exception of class [e] escape [m]?
    Always [true] for ["StackOverflowError"] (unmodelled). *)

val never_throws : t -> Method_id.Set.t
(** Methods whose may-raise set is empty.  A superset of the
    syntactic baseline's set (test/purity.ml) — the precision
    comparison is a test. *)

val handler_clause_count : t -> Method_id.t -> int
(** Size of the active-handler summary H(m): how many catch clauses
    of the plain program can be live when [m]'s entry raises.  Zero
    means any injected exception escapes to the driver untouched. *)

val blind_pair : t -> Method_id.t -> string -> string -> bool
(** [blind_pair t m e1 e2]: is the program unable to distinguish an
    injection of [e1] at [m]'s entry from one of [e2]?  Requires
    identical field layouts and, for every clause in H(m), equal
    catchability and a blind handler body.  Reflexive, symmetric and
    transitive on any fixed [m]. *)

val partition : t -> Method_id.t -> string list -> string list list
(** Partitions an injectable-class list into blindness equivalence
    groups, preserving first-occurrence order of groups and input
    order of members.  Concatenating the result yields a permutation
    of the input (with the first member of each group its
    representative). *)
