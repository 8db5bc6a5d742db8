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

   Performance of the canonical form matters: the detection phase builds
   one per wrapped-call comparison, over graphs of thousands of nodes.
   Three measures keep comparisons cheap:
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
   ({!canonical_many_via}, {!reaches_dirty}) — the differential
   snapshot path of the detection engine. *)

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
         | Heap.Obj { cls; fields } ->
           let names =
             List.sort String.compare
               (Hashtbl.fold (fun k _ acc -> k :: acc) fields [])
           in
           let entries = Array.make (List.length names) ("", Null) in
           List.iteri
             (fun i name -> entries.(i) <- (name, node (Hashtbl.find fields name)))
             names;
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

(* ------------------------------------------------------------------ *)
(* Incremental canonicalization                                        *)
(* ------------------------------------------------------------------ *)

(* The detection phase canonicalizes the same receiver graph at every
   wrapped call of a campaign run, and most calls never mutate it.  The
   memo caches the canonical form per receiver identity together with
   the set of object ids it covers and the heap generation it was last
   known valid at; revalidation is then
   - one integer compare when nothing on the heap was written since
     ([Heap.write_gen] unchanged), or
   - one [Heap.write_stamp] read per covered id — no payload traversal,
     no sorting, no hashing, no allocation — otherwise.
   Any mutation of a covered object (including through [Shadow]'s
   copy-on-write barrier and rollback's [restore_payload]) bumps that
   object's stamp past the entry's generation and forces a rebuild, so
   a cached form is never stale.  Objects the graph did not reach at
   build time cannot join it without a covered object being mutated
   first, which invalidates the entry; fresh allocations reuse no ids,
   so an entry's root list can never alias a later object. *)
module Memo = struct
  type entry = {
    e_roots : Value.t list;
    e_node : node;
    e_ids : Value.obj_id list; (* every id the form covers *)
    mutable e_gen : int; (* heap generation the entry is valid at *)
  }

  type t = {
    tbl : (Value.obj_id, entry) Hashtbl.t;
        (* keyed by the first root's identity: detection snapshots are
           receiver-rooted, so this gives one live entry per wrapped
           receiver *)
    mutable hits : int;
    mutable misses : int;
  }

  let create () = { tbl = Hashtbl.create 64; hits = 0; misses = 0 }
  let hits m = m.hits
  let misses m = m.misses

  let key_of = function Value.Ref id :: _ -> id | _ -> 0

  let still_valid heap e =
    let gen = Heap.write_gen heap in
    e.e_gen = gen
    || (List.for_all (fun id -> Heap.write_stamp heap id <= e.e_gen) e.e_ids
        &&
        (e.e_gen <- gen;
         true))

  let canonical_many m heap vs =
    let key = key_of vs in
    match Hashtbl.find_opt m.tbl key with
    | Some e when e.e_roots = vs && still_valid heap e ->
      m.hits <- m.hits + 1;
      e.e_node
    | _ ->
      m.misses <- m.misses + 1;
      let gen = Heap.write_gen heap in
      let visited = Hashtbl.create 64 in
      let counter = ref 1 in
      let read = Heap.get heap in
      let elems = Array.make (List.length vs) Null in
      List.iteri
        (fun i v -> elems.(i) <- canonicalize ~read ~visited ~counter v)
        vs;
      let node = Arr { idx = 0; hash = arr_hash ~idx:0 elems; elems } in
      let ids = Hashtbl.fold (fun id _ acc -> id :: acc) visited [] in
      Hashtbl.replace m.tbl key
        { e_roots = vs; e_node = node; e_ids = ids; e_gen = gen };
      node
end

(* Does the graph reachable from [roots] — as read through [read] —
   contain an id satisfying [dirty]?  This is the dirty-set/reachability
   intersection of the differential snapshot check: reading through a
   shadow's before-state, it answers "was anything the snapshot covers
   actually touched?" without building a canonical form. *)
let reaches_dirty read ~dirty roots =
  let visited = Hashtbl.create 64 in
  let exception Found in
  let rec visit v =
    match (v : Value.t) with
    | Value.Int _ | Value.Bool _ | Value.Str _ | Value.Null -> ()
    | Value.Ref id ->
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.replace visited id ();
        if dirty id then raise Found;
        match read id with
        | Heap.Obj { fields; _ } -> Hashtbl.iter (fun _ v -> visit v) fields
        | Heap.Arr a -> Array.iter visit a
      end
  in
  try
    List.iter visit roots;
    false
  with Found -> true

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
        match read id with
        | Heap.Obj { fields; _ } -> Hashtbl.iter (fun _ v -> visit v) fields
        | Heap.Arr a -> Array.iter visit a
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
        let fresh =
          match Heap.get heap id with
          | Heap.Obj { cls; _ } ->
            Heap.alloc heap (Heap.Obj { cls; fields = Hashtbl.create 8 })
          | Heap.Arr a ->
            Heap.alloc heap (Heap.Arr (Array.make (Array.length a) Value.Null))
        in
        Hashtbl.replace mapping id fresh;
        (match Heap.get heap id, Heap.get heap fresh with
         | Heap.Obj { fields; _ }, Heap.Obj { fields = fresh_fields; _ } ->
           Hashtbl.iter (fun k v -> Hashtbl.replace fresh_fields k (copy v)) fields
         | Heap.Arr a, Heap.Arr fresh_a ->
           Array.iteri (fun i v -> fresh_a.(i) <- copy v) a
         | (Heap.Obj _ | Heap.Arr _), _ -> assert false);
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
