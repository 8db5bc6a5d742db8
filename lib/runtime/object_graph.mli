(** Object graphs (paper Definition 1) and their comparison.

    The object graph of a value [v] is the rooted graph of all objects,
    arrays and primitive values reachable from [v] through instance
    variables and array slots, with sharing preserved: two pointers to
    the same object remain pointers to one shared node.

    Graphs are represented by a {e canonical form}: a finite tree in
    which each heap object is expanded at its first visit (fields sorted
    by name, array slots in index order) and later occurrences become
    back-references to the first-visit index.  Two rooted graphs are
    identical in the sense of Definition 1 iff their canonical forms are
    structurally equal — including cyclic graphs, whose cycles close
    through a [Back] node.

    Comparing a graph's state when a shadow was opened with its current
    state needs no canonical form: {!first_diff} walks both views
    ({!Shadow.read_before} and [Heap.get]) in lockstep in canonical
    order and stops at the first difference, answering exactly what
    {!diff} and {!equal} answer on the two forms.  Copy-on-write
    detection and the production canary use it; the materialized forms
    serve the eager snapshot oracle, the [graphEq] builtin and the
    tests.

    Interior nodes carry a structural hash computed bottom-up at
    construction time, placed before the children in the record so that
    the polymorphic equality under {!equal} rejects differing subtrees
    after two int compares.  Neither canonicalization nor {!first_diff}
    touches the heap it reads (no allocation, no write barrier), and both
    take an alternative payload lookup — e.g. {!Shadow.read_before} — to
    see the graph a shadow's before-state describes. *)

type node =
  | Int of int
  | Bool of bool
  | Str of string
  | Null
  | Obj of { idx : int; hash : int; cls : string; fields : (string * node) array }
  | Arr of { idx : int; hash : int; elems : node array }
  | Back of int  (** reference to an already-visited object *)

val pp_node : node Fmt.t

val canonical : Heap.t -> Value.t -> node
(** Canonical form of the object graph rooted at the given value. *)

val canonical_many : Heap.t -> Value.t list -> node
(** Canonical form covering several roots at once (e.g. the receiver
    plus the by-reference arguments of a call); sharing across roots is
    captured because the visit table is common to all of them.  The
    roots are joined under a synthetic array node that exists only in
    the result — nothing is allocated on the heap. *)

val canonical_many_via : (Value.obj_id -> Heap.payload) -> Value.t list -> node
(** [canonical_many] with an explicit payload lookup.  Passing
    {!Shadow.read_before} rebuilds the canonical form the graph had when
    the shadow was opened: the reference {!first_diff} is tested
    against. *)

val reachable_via :
  (Value.obj_id -> Heap.payload) -> Value.t list ->
  (Value.obj_id, unit) Hashtbl.t
(** The set of ids reachable from the roots through the given payload
    lookup.  With {!Shadow.read_before} this is the entry-time reachable
    set of a wrapped call: exactly the ids an eager checkpoint of the
    same roots would have covered.  Used by {!Checkpoint.rollback} to
    restore dirty payloads inside the protected graph and no others,
    and by {!Checkpoint.Eager} to pick what it copies. *)

val equal : node -> node -> bool
(** Object-graph identity per Definition 1.  The precomputed structural
    hashes make mismatches cheap: differing subtrees are rejected
    without being walked. *)

val hash : node -> int
(** Structural hash; O(1) for interior nodes (precomputed). *)

val to_string : node -> string

val diff : node -> node -> string option
(** First root-to-leaf field path at which two canonical forms differ,
    e.g. ["this.head.next.value"]; [None] when equal.  Arrays are
    compared with a single indexed walk; a length mismatch is reported
    as [path ^ ".length"].  Shown in detection reports so users can see
    {e where} a method left the receiver inconsistent. *)

val first_diff :
  read_a:(Value.obj_id -> Heap.payload) -> read_b:(Value.obj_id -> Heap.payload) ->
  Value.t list -> string option
(** [first_diff ~read_a ~read_b roots] is
    [diff (canonical_many_via read_a roots) (canonical_many_via read_b roots)],
    and so [None] iff those forms are {!equal}, computed without
    building either form: one lockstep walk of both views in canonical
    order that stops at the first difference and only then renders its
    path.  With {!Shadow.read_before} against [Heap.get] it compares a
    graph's entry-time and current states — the copy-on-write detection
    check and the canary's validation. *)

val clone : Heap.t -> Value.t -> Value.t
(** Deep copy of the graph, preserving sharing and cycles; the result
    references freshly allocated objects only.  This is the paper's
    [deep_copy]. *)

val size : Heap.t -> Value.t -> int
(** Number of heap objects in the graph (the checkpoint-size metric of
    the Figure 5 benchmarks). *)
