(* Object graphs (paper Definition 1) and their comparison.

   The object graph of a value [v] is the rooted graph of all objects,
   arrays and primitive values reachable from [v] through instance
   variables and array slots.  Sharing matters: two pointers to the same
   object must remain pointers to one shared node.

   We represent an object graph by a *canonical form*: a finite tree in
   which each heap object is expanded at its first visit (in a
   deterministic traversal order: fields sorted by name, array slots in
   index order) and every later occurrence becomes a back-reference
   [Back idx] to the first-visit index.  Two rooted graphs are identical
   in the sense of Definition 1 iff their canonical forms are equal, so
   graph comparison reduces to structural equality of trees — including
   for cyclic graphs, whose cycles always close through a [Back].

   The copy-on-write detection path and the production canary compare
   a graph's entry-time state (a shadow's [read_before]) with its
   current one through [first_diff], which walks both views in lockstep
   in canonical order and stops at the first difference: no canonical
   form is built, and a path string only once a difference is found.
   The materialized forms below serve the eager snapshot oracle (one
   at every wrapped entry and one more at every exceptional exit, over
   graphs of thousands of nodes), the [graphEq] builtin and the tests
   that check [first_diff] against [diff].  Three measures keep them
   cheap:
   - every interior node carries a structural [hash], computed bottom-up
     at construction; the field sits before the children in the record,
     so the polymorphic [=] underlying {!equal} rejects differing
     subtrees after two int compares instead of walking them;
   - fields and elements are arrays, not lists (half the allocations,
     contiguous scans);
   - multi-root forms ({!canonical_many}) traverse the root list with a
     shared visit table instead of wrapping the roots in a synthetic
     heap array — the old trick bumped [Heap.allocations]/[next_id] on
     the *program* heap at every snapshot, distorting the heap metrics
     the reports quote.

   Canonicalization is additionally parameterized by the payload lookup
   ([read]), so a copy-on-write {!Shadow} can rebuild the *entry-time*
   canonical form from the current heap plus its saved payloads
   ({!canonical_many_via}) — the reference [first_diff] is tested
   against. *)

type node =
  | Int of int
  | Bool of bool
  | Str of string
  | Null
  | Obj of { idx : int; hash : int; cls : string; fields : (string * node) array }
  | Arr of { idx : int; hash : int; elems : node array }
  | Back of int

let rec pp_node ppf = function
  | Int n -> Fmt.int ppf n
  | Bool b -> Fmt.bool ppf b
  | Str s -> Fmt.pf ppf "%S" s
  | Null -> Fmt.string ppf "null"
  | Back i -> Fmt.pf ppf "^%d" i
  | Obj { idx; cls; fields; _ } ->
    let pp_field ppf (name, n) = Fmt.pf ppf "%s=%a" name pp_node n in
    Fmt.pf ppf "@[<hv 2>%s@%d{%a}@]" cls idx
      (Fmt.array ~sep:Fmt.comma pp_field) fields
  | Arr { idx; elems; _ } ->
    Fmt.pf ppf "@[<hv 2>arr@%d[%a]@]" idx (Fmt.array ~sep:Fmt.semi pp_node) elems

(* Structural hash of a node; precomputed for interior nodes, so reading
   it is O(1) everywhere. *)
let hash = function
  | Obj { hash; _ } | Arr { hash; _ } -> hash
  | (Int _ | Bool _ | Str _ | Null | Back _) as leaf -> Hashtbl.hash leaf

(* Deterministic mixing (no seeds, no Random): equal structures always
   get equal hashes, on any domain, in any process. *)
let mix h x = (h * 0x01000193) lxor (x land max_int)

let obj_hash ~idx ~cls fields =
  let h = ref (mix (mix 0x811c9dc5 idx) (Hashtbl.hash cls)) in
  Array.iter
    (fun (name, n) -> h := mix (mix !h (Hashtbl.hash name)) (hash n))
    fields;
  !h

let arr_hash ~idx elems =
  let h = ref (mix 0x7ee3623b idx) in
  Array.iter (fun n -> h := mix !h (hash n)) elems;
  !h

(* Canonicalization core, parameterized by the payload lookup so the
   same traversal serves the live heap ([Heap.get]) and a shadow's
   before-state ([Shadow.read_before]). *)
let canonicalize ~(read : Value.obj_id -> Heap.payload) ~visited ~counter v =
  let rec node v =
    match (v : Value.t) with
    | Value.Int n -> Int n
    | Value.Bool b -> Bool b
    | Value.Str s -> Str s
    | Value.Null -> Null
    | Value.Ref id -> (
      match Hashtbl.find_opt visited id with
      | Some idx -> Back idx
      | None ->
        let idx = !counter in
        incr counter;
        Hashtbl.replace visited id idx;
        (match read id with
         | Heap.Obj { cls; names; vals } ->
           let entries = Array.make (Array.length names) ("", Null) in
           Array.iteri (fun i name -> entries.(i) <- (name, node vals.(i))) names;
           Obj { idx; hash = obj_hash ~idx ~cls entries; cls; fields = entries }
         | Heap.Arr a ->
           let elems = Array.make (Array.length a) Null in
           Array.iteri (fun i v -> elems.(i) <- node v) a;
           Arr { idx; hash = arr_hash ~idx elems; elems }))
  in
  node v

(* Canonical form of the object graph rooted at [v]. *)
let canonical heap v =
  canonicalize ~read:(Heap.get heap) ~visited:(Hashtbl.create 64) ~counter:(ref 0) v

(* Canonical form covering several roots at once (the receiver plus the
   by-reference arguments of a call), with the given payload lookup.
   The roots are joined under a synthetic array node at index 0 — the
   shape snapshots have always had, so diff paths still read
   [this[k].…] — but the node exists only in the result: nothing is
   allocated on the heap, and sharing *across* roots is captured because
   the visit table is common to all of them. *)
let canonical_many_via read vs =
  let visited = Hashtbl.create 64 in
  let counter = ref 1 (* 0 is the synthetic root *) in
  let elems = Array.make (List.length vs) Null in
  List.iteri (fun i v -> elems.(i) <- canonicalize ~read ~visited ~counter v) vs;
  Arr { idx = 0; hash = arr_hash ~idx:0 elems; elems }

let canonical_many heap vs = canonical_many_via (Heap.get heap) vs

(* The ids reachable from [roots] through [read].  With a shadow's
   [read_before] this is the entry-time reachable set of a wrapped
   call — the objects a checkpoint of the same roots would have covered.
   Checkpoint rollback intersects it with the shadow's dirty set so it
   restores exactly what an eager checkpoint would restore, and nothing
   outside the protected graph. *)
let reachable_via read roots =
  let visited = Hashtbl.create 64 in
  let rec visit v =
    match (v : Value.t) with
    | Value.Int _ | Value.Bool _ | Value.Str _ | Value.Null -> ()
    | Value.Ref id ->
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.replace visited id ();
        match read id with Heap.Obj { vals = a; _ } | Heap.Arr a -> Array.iter visit a
      end
  in
  List.iter visit roots;
  visited

let equal (a : node) (b : node) = a == b || a = b
let to_string n = Fmt.str "%a" pp_node n

(* First path (root-to-leaf field trail) at which two canonical forms
   differ, if any.  Used in detection reports so the user can see *where*
   a method left the receiver inconsistent. *)
let diff a b =
  let exception Found of string in
  let rec walk path a b =
    if a != b then
      match a, b with
      | Int x, Int y -> if x <> y then raise (Found path)
      | Bool x, Bool y -> if x <> y then raise (Found path)
      | Str x, Str y -> if not (String.equal x y) then raise (Found path)
      | Null, Null -> ()
      | Back x, Back y -> if x <> y then raise (Found path)
      | Obj oa, Obj ob ->
        if not (String.equal oa.cls ob.cls) then raise (Found path)
        else begin
          let na = Array.length oa.fields and nb = Array.length ob.fields in
          for i = 0 to min na nb - 1 do
            let fa, va = oa.fields.(i) and fb, vb = ob.fields.(i) in
            if not (String.equal fa fb) then raise (Found path)
            else walk (path ^ "." ^ fa) va vb
          done;
          if na <> nb then raise (Found path)
        end
      | Arr aa, Arr ab ->
        let na = Array.length aa.elems and nb = Array.length ab.elems in
        if na <> nb then raise (Found (path ^ ".length"))
        else
          for i = 0 to na - 1 do
            walk (Printf.sprintf "%s[%d]" path i) aa.elems.(i) ab.elems.(i)
          done
      | (Int _ | Bool _ | Str _ | Null | Obj _ | Arr _ | Back _), _ ->
        raise (Found path)
  in
  try
    walk "this" a b;
    None
  with Found p -> Some p

(* One step of a difference path, collected as the lockstep walk below
   unwinds from the difference it found. *)
type step = Field of string | Index of int | Length

module Ids = Hashtbl.Make (Int)

(* [diff] of the canonical forms of the same roots under two payload
   lookups, without building either form: one depth-first walk of both
   views in canonical order (the payloads' sorted field slots, array
   slots by index).
   Until the first difference the two canonical traversals expand the
   same shapes in the same order, so one counter gives both sides' first-
   visit indices, and a visit table per side turns each later visit
   into that side's [Back].  Every check [diff] makes on the finished
   forms happens here on the fly, in the same order, so the walk stops
   where [diff] would and reports the same path; the path string is
   built only then.  A difference-free walk means the forms are
   [equal]: their indices and hashes follow from the shape.  Two
   payloads of one class layout share their [names], and then no
   name is compared. *)
let first_diff ~read_a ~read_b roots =
  let seen_a = Ids.create 64 and seen_b = Ids.create 64 in
  let counter = ref 1 (* 0 is the synthetic root *) in
  let path = ref [] in
  let rec same (a : Value.t) (b : Value.t) =
    match a, b with
    | Value.Ref ia, Value.Ref ib -> (
      match Ids.find_opt seen_a ia, Ids.find_opt seen_b ib with
      | Some x, Some y -> x = y
      | Some _, None | None, Some _ -> false
      | None, None ->
        let idx = !counter in
        incr counter;
        Ids.replace seen_a ia idx;
        Ids.replace seen_b ib idx;
        same_payload (read_a ia) (read_b ib))
    | Value.Int x, Value.Int y -> x = y
    | Value.Bool x, Value.Bool y -> x = y
    | Value.Str x, Value.Str y -> String.equal x y
    | Value.Null, Value.Null -> true
    | (Value.Ref _ | Value.Int _ | Value.Bool _ | Value.Str _ | Value.Null), _ -> false
  and same_payload pa pb =
    match pa, pb with
    | Heap.Obj oa, Heap.Obj ob ->
      String.equal oa.cls ob.cls && same_fields oa.names ob.names oa.vals ob.vals 0
    | Heap.Arr a, Heap.Arr b ->
      if Array.length a <> Array.length b then begin
        path := [ Length ];
        false
      end
      else same_elems a b 0
    | (Heap.Obj _ | Heap.Arr _), _ -> false
  and same_fields na nb va vb i =
    if i >= Array.length na || i >= Array.length nb then Array.length na = Array.length nb
    else
      (na == nb || String.equal na.(i) nb.(i))
      && (same va.(i) vb.(i)
          || begin
            path := Field na.(i) :: !path;
            false
          end)
      && same_fields na nb va vb (i + 1)
  and same_elems a b i =
    i >= Array.length a
    || (same a.(i) b.(i)
        || begin
          path := Index i :: !path;
          false
        end)
       && same_elems a b (i + 1)
  in
  let render steps =
    let buf = Buffer.create 32 in
    Buffer.add_string buf "this";
    List.iter
      (function
        | Field f ->
          Buffer.add_char buf '.';
          Buffer.add_string buf f
        | Index i ->
          Buffer.add_char buf '[';
          Buffer.add_string buf (string_of_int i);
          Buffer.add_char buf ']'
        | Length -> Buffer.add_string buf ".length")
      steps;
    Buffer.contents buf
  in
  let rec walk_roots i = function
    | [] -> None
    | v :: rest ->
      if same v v then walk_roots (i + 1) rest else Some (render (Index i :: !path))
  in
  walk_roots 0 roots

(* Deep copy of the graph rooted at [v], preserving sharing and cycles:
   the result references freshly allocated objects only.  This is the
   paper's [deep_copy]. *)
let clone heap v =
  let mapping : (Value.obj_id, Value.obj_id) Hashtbl.t = Hashtbl.create 64 in
  let rec copy v =
    match (v : Value.t) with
    | Value.Int _ | Value.Bool _ | Value.Str _ | Value.Null -> v
    | Value.Ref id -> (
      match Hashtbl.find_opt mapping id with
      | Some fresh -> Value.Ref fresh
      | None ->
        (* Allocate the copy first so cycles map back to it. *)
        let p = Heap.get heap id in
        let (Heap.Obj { vals = src; _ } | Heap.Arr src) = p in
        let dst = Array.make (Array.length src) Value.Null in
        let fresh =
          Heap.alloc heap
            (match p with
             | Heap.Obj o -> Heap.Obj { o with vals = dst }
             | Heap.Arr _ -> Heap.Arr dst)
        in
        Hashtbl.replace mapping id fresh;
        Array.iteri (fun i v -> dst.(i) <- copy v) src;
        Value.Ref fresh)
  in
  copy v

(* Number of heap objects in the graph rooted at [v] (checkpoint size
   metric used by the Figure 5 benchmarks). *)
let size heap v =
  let visited = Hashtbl.create 64 in
  let rec visit v =
    match (v : Value.t) with
    | Value.Int _ | Value.Bool _ | Value.Str _ | Value.Null -> ()
    | Value.Ref id ->
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.replace visited id ();
        List.iter (fun r -> visit (Value.Ref r)) (Heap.successors heap id)
      end
  in
  visit v;
  Hashtbl.length visited
