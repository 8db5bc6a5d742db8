(* Unit and property tests for object graphs: canonical forms,
   equality, diff, clone, and graph size (paper Definitions 1-2). *)

open Failatom_runtime

let check = Alcotest.check
let bool_c = Alcotest.bool

(* Builds the canonical form of [v] in [heap]. *)
let canon heap v = Object_graph.canonical heap v

let graph_equal heap a b = Object_graph.equal (canon heap a) (canon heap b)

(* A small fixture: two objects sharing a child, plus an array. *)
let fixture () =
  let heap = Heap.create () in
  let shared = Heap.alloc_object heap ~cls:"Leaf" [ ("v", Value.Int 7) ] in
  let left =
    Heap.alloc_object heap ~cls:"Node"
      [ ("tag", Value.Str "left"); ("child", Value.Ref shared) ]
  in
  let right =
    Heap.alloc_object heap ~cls:"Node"
      [ ("tag", Value.Str "right"); ("child", Value.Ref shared) ]
  in
  let root =
    Heap.alloc_object heap ~cls:"Root"
      [ ("l", Value.Ref left); ("r", Value.Ref right); ("n", Value.Null) ]
  in
  (heap, root, shared)

let test_primitive_equality () =
  let heap = Heap.create () in
  check bool_c "ints equal" true (graph_equal heap (Value.Int 3) (Value.Int 3));
  check bool_c "ints differ" false (graph_equal heap (Value.Int 3) (Value.Int 4));
  check bool_c "str equal" true (graph_equal heap (Value.Str "a") (Value.Str "a"));
  check bool_c "null equal" true (graph_equal heap Value.Null Value.Null);
  check bool_c "bool vs int" false (graph_equal heap (Value.Bool true) (Value.Int 1))

let test_structural_equality_ignores_identity () =
  let heap = Heap.create () in
  let a = Heap.alloc_object heap ~cls:"P" [ ("x", Value.Int 1) ] in
  let b = Heap.alloc_object heap ~cls:"P" [ ("x", Value.Int 1) ] in
  check bool_c "same structure, different identity" true
    (graph_equal heap (Value.Ref a) (Value.Ref b))

let test_field_order_irrelevant () =
  let heap = Heap.create () in
  let a = Heap.alloc_object heap ~cls:"P" [ ("x", Value.Int 1); ("y", Value.Int 2) ] in
  let b = Heap.alloc_object heap ~cls:"P" [ ("y", Value.Int 2); ("x", Value.Int 1) ] in
  check bool_c "fields sorted in canonical form" true
    (graph_equal heap (Value.Ref a) (Value.Ref b))

let test_class_name_matters () =
  let heap = Heap.create () in
  let a = Heap.alloc_object heap ~cls:"P" [ ("x", Value.Int 1) ] in
  let b = Heap.alloc_object heap ~cls:"Q" [ ("x", Value.Int 1) ] in
  check bool_c "class distinguishes" false (graph_equal heap (Value.Ref a) (Value.Ref b))

let test_sharing_is_observable () =
  let heap = Heap.create () in
  let shared = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let with_sharing =
    Heap.alloc_object heap ~cls:"R" [ ("a", Value.Ref shared); ("b", Value.Ref shared) ]
  in
  let l1 = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let l2 = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let without_sharing =
    Heap.alloc_object heap ~cls:"R" [ ("a", Value.Ref l1); ("b", Value.Ref l2) ]
  in
  check bool_c "shared child vs equal copies" false
    (graph_equal heap (Value.Ref with_sharing) (Value.Ref without_sharing))

let test_cycles () =
  let heap = Heap.create () in
  let a = Heap.alloc_object heap ~cls:"C" [ ("next", Value.Null) ] in
  let b = Heap.alloc_object heap ~cls:"C" [ ("next", Value.Ref a) ] in
  Heap.set_field heap a "next" (Value.Ref b);
  (* a <-> b two-cycle; canonicalization must terminate and be stable. *)
  let c1 = canon heap (Value.Ref a) in
  let c2 = canon heap (Value.Ref a) in
  check bool_c "cycle canonical stable" true (Object_graph.equal c1 c2);
  (* self-loop vs two-cycle differ *)
  let s = Heap.alloc_object heap ~cls:"C" [ ("next", Value.Null) ] in
  Heap.set_field heap s "next" (Value.Ref s);
  check bool_c "self-loop differs from 2-cycle" false
    (graph_equal heap (Value.Ref a) (Value.Ref s))

let test_mutation_changes_canonical () =
  let heap, root, shared = fixture () in
  let before = canon heap (Value.Ref root) in
  Heap.set_field heap shared "v" (Value.Int 8);
  let after = canon heap (Value.Ref root) in
  check bool_c "deep mutation visible at root" false (Object_graph.equal before after)

let test_diff_path () =
  let heap, root, shared = fixture () in
  let before = canon heap (Value.Ref root) in
  Heap.set_field heap shared "v" (Value.Int 9);
  let after = canon heap (Value.Ref root) in
  match Object_graph.diff before after with
  | Some path -> check Alcotest.string "diff path" "this.l.child.v" path
  | None -> Alcotest.fail "expected a diff"

let test_diff_none_on_equal () =
  let heap, root, _ = fixture () in
  let c = canon heap (Value.Ref root) in
  check bool_c "no diff on equal graphs" true (Object_graph.diff c c = None)

let test_clone_preserves_structure () =
  let heap, root, _ = fixture () in
  let copy = Object_graph.clone heap (Value.Ref root) in
  check bool_c "clone equals original" true (graph_equal heap (Value.Ref root) copy)

let test_clone_is_detached () =
  let heap, root, shared = fixture () in
  let copy = Object_graph.clone heap (Value.Ref root) in
  Heap.set_field heap shared "v" (Value.Int 99);
  check bool_c "original changed, copy did not" false
    (graph_equal heap (Value.Ref root) copy)

let test_clone_preserves_sharing () =
  let heap = Heap.create () in
  let shared = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let root =
    Heap.alloc_object heap ~cls:"R" [ ("a", Value.Ref shared); ("b", Value.Ref shared) ]
  in
  match Object_graph.clone heap (Value.Ref root) with
  | Value.Ref copy_id ->
    let a = Heap.get_field heap copy_id "a" and b = Heap.get_field heap copy_id "b" in
    check bool_c "copy children shared" true (a = b && a <> Some (Value.Ref shared))
  | _ -> Alcotest.fail "clone of a ref is a ref"

let test_clone_cyclic () =
  let heap = Heap.create () in
  let a = Heap.alloc_object heap ~cls:"C" [ ("next", Value.Null) ] in
  Heap.set_field heap a "next" (Value.Ref a);
  let copy = Object_graph.clone heap (Value.Ref a) in
  check bool_c "cyclic clone equal" true (graph_equal heap (Value.Ref a) copy);
  match copy with
  | Value.Ref id ->
    check bool_c "cycle closed onto copy" true
      (Heap.get_field heap id "next" = Some (Value.Ref id))
  | _ -> Alcotest.fail "ref expected"

let test_size () =
  let heap, root, _ = fixture () in
  (* root + left + right + shared leaf = 4 heap objects *)
  check Alcotest.int "graph size" 4 (Object_graph.size heap (Value.Ref root));
  check Alcotest.int "primitive size" 0 (Object_graph.size heap (Value.Int 1))

let test_array_diff_paths () =
  let heap = Heap.create () in
  let short_a = Heap.alloc_array heap [| Value.Int 1; Value.Int 2 |] in
  let long_a = Heap.alloc_array heap [| Value.Int 1; Value.Int 2; Value.Int 3 |] in
  (match
     Object_graph.diff
       (canon heap (Value.Ref short_a))
       (canon heap (Value.Ref long_a))
   with
  | Some path -> check Alcotest.string "length diff path" "this.length" path
  | None -> Alcotest.fail "expected a length diff");
  let other = Heap.alloc_array heap [| Value.Int 1; Value.Int 9 |] in
  match
    Object_graph.diff (canon heap (Value.Ref short_a)) (canon heap (Value.Ref other))
  with
  | Some path -> check Alcotest.string "element diff path" "this[1]" path
  | None -> Alcotest.fail "expected an element diff"

(* Snapshots must not perturb the program heap: the metrics the pipeline
   reports (allocations, live objects) and the allocation stream that
   exception identities ride on would otherwise differ between an
   instrumented and a plain run. *)
let test_canonical_many_does_not_allocate () =
  let heap, root, shared = fixture () in
  let allocs = Heap.allocations heap and live = Heap.live_count heap in
  let c = Object_graph.canonical_many heap [ Value.Ref root; Value.Ref shared ] in
  ignore (Object_graph.hash c);
  check Alcotest.int "allocations unchanged" allocs (Heap.allocations heap);
  check Alcotest.int "live objects unchanged" live (Heap.live_count heap)

let test_canonical_many_shares_table () =
  let heap = Heap.create () in
  let shared = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let a = Heap.alloc_object heap ~cls:"A" [ ("c", Value.Ref shared) ] in
  let b = Heap.alloc_object heap ~cls:"B" [ ("c", Value.Ref shared) ] in
  let fresh = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let c = Heap.alloc_object heap ~cls:"B" [ ("c", Value.Ref fresh) ] in
  let multi1 = Object_graph.canonical_many heap [ Value.Ref a; Value.Ref b ] in
  let multi2 = Object_graph.canonical_many heap [ Value.Ref a; Value.Ref c ] in
  check bool_c "cross-root sharing observable" false (Object_graph.equal multi1 multi2)

(* ---------------- properties ---------------- *)

(* Random heap graphs: build [n] objects with random int fields and
   random references among already-created objects (guaranteeing
   termination of construction, while cycles can still appear through
   later patching). *)
let build_random_graph heap rand_state n =
  let ids = Array.init n (fun i ->
      Heap.alloc_object heap ~cls:(if i mod 2 = 0 then "A" else "B")
        [ ("v", Value.Int (Random.State.int rand_state 5)) ])
  in
  Array.iteri
    (fun i id ->
      let target = ids.(Random.State.int rand_state n) in
      if Random.State.bool rand_state then
        Heap.set_field heap id "v" (Value.Ref target)
      else ignore i)
    ids;
  ids.(0)

let prop_clone_equal =
  QCheck2.Test.make ~name:"clone preserves canonical form" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) int)
    (fun (n, seed) ->
      let heap = Heap.create () in
      let rs = Random.State.make [| seed |] in
      let root = build_random_graph heap rs n in
      let copy = Object_graph.clone heap (Value.Ref root) in
      Object_graph.equal (canon heap (Value.Ref root)) (canon heap copy))

let prop_canonical_deterministic =
  QCheck2.Test.make ~name:"canonicalization is deterministic" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) int)
    (fun (n, seed) ->
      let heap = Heap.create () in
      let rs = Random.State.make [| seed |] in
      let root = build_random_graph heap rs n in
      Object_graph.equal (canon heap (Value.Ref root)) (canon heap (Value.Ref root)))

let prop_mutation_detected =
  QCheck2.Test.make ~name:"reachable mutation changes canonical form" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) int)
    (fun (n, seed) ->
      let heap = Heap.create () in
      let rs = Random.State.make [| seed |] in
      let root = build_random_graph heap rs n in
      let before = canon heap (Value.Ref root) in
      (* mutate the root itself: always reachable *)
      Heap.set_field heap root "v" (Value.Str "mutated");
      not (Object_graph.equal before (canon heap (Value.Ref root))))

(* Checkpoint rollback restores payloads behind the write barrier's
   back; the form canonicalized afterwards must equal the one from
   before the mutation. *)
let test_rollback_restores_form () =
  let heap, root, shared = fixture () in
  let roots = [ Value.Ref root ] in
  let before = Object_graph.canonical_many heap roots in
  Checkpoint.with_checkpoint heap roots (fun cp ->
      Heap.set_field heap shared "v" (Value.Int 8);
      Heap.set_field heap root "n" (Value.Int 1);
      check bool_c "mutated form differs" false
        (Object_graph.equal before (Object_graph.canonical_many heap roots));
      Checkpoint.rollback cp);
  check bool_c "restored form equals the original" true
    (Object_graph.equal before (Object_graph.canonical_many heap roots))

let suite =
  [ Alcotest.test_case "primitive equality" `Quick test_primitive_equality;
    Alcotest.test_case "identity irrelevant" `Quick test_structural_equality_ignores_identity;
    Alcotest.test_case "field order irrelevant" `Quick test_field_order_irrelevant;
    Alcotest.test_case "class name matters" `Quick test_class_name_matters;
    Alcotest.test_case "sharing observable" `Quick test_sharing_is_observable;
    Alcotest.test_case "cycles" `Quick test_cycles;
    Alcotest.test_case "mutation changes form" `Quick test_mutation_changes_canonical;
    Alcotest.test_case "diff path" `Quick test_diff_path;
    Alcotest.test_case "diff none on equal" `Quick test_diff_none_on_equal;
    Alcotest.test_case "clone equals" `Quick test_clone_preserves_structure;
    Alcotest.test_case "clone detached" `Quick test_clone_is_detached;
    Alcotest.test_case "clone keeps sharing" `Quick test_clone_preserves_sharing;
    Alcotest.test_case "clone cyclic" `Quick test_clone_cyclic;
    Alcotest.test_case "graph size" `Quick test_size;
    Alcotest.test_case "array diff paths" `Quick test_array_diff_paths;
    Alcotest.test_case "canonical_many allocation-free" `Quick
      test_canonical_many_does_not_allocate;
    Alcotest.test_case "multi-root sharing" `Quick test_canonical_many_shares_table;
    Alcotest.test_case "rollback restores the form" `Quick test_rollback_restores_form;
    QCheck_alcotest.to_alcotest prop_clone_equal;
    QCheck_alcotest.to_alcotest prop_canonical_deterministic;
    QCheck_alcotest.to_alcotest prop_mutation_detected ]
