(* Tests of the differential (copy-on-write) snapshot engine: the
   Shadow dirty-set layer, the lockstep graph comparison, and end-to-end
   equivalence of cow detection, the production path, with the eager
   oracle. *)

open Failatom_runtime
open Failatom_core
open Failatom_apps

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let parse = Failatom_minilang.Minilang.parse

(* ------------------------------------------------------------------ *)
(* (a) Shadow unit tests: dirty sets, before-state reads, free         *)
(* ------------------------------------------------------------------ *)

let test_shadow_records_first_write () =
  let heap = Heap.create () in
  let id = Heap.alloc_object heap ~cls:"P" [ ("x", Value.Int 1) ] in
  Shadow.with_shadow heap (fun sh ->
      check int_c "clean at open" 0 (Shadow.dirty_count sh);
      Heap.set_field heap id "x" (Value.Int 2);
      Heap.set_field heap id "x" (Value.Int 3);
      check int_c "one dirty object" 1 (Shadow.dirty_count sh);
      check bool_c "dirty" true (Shadow.is_dirty sh id);
      (* the saved payload is the pre-FIRST-write one *)
      check bool_c "entry value" true
        (Test_heap.saved_field (Shadow.read_before sh id) "x" = Some (Value.Int 1)));
  check bool_c "current value survives close" true
    (Heap.get_field heap id "x" = Some (Value.Int 3))

let test_shadow_read_before_clean () =
  let heap = Heap.create () in
  let id = Heap.alloc_object heap ~cls:"P" [ ("x", Value.Int 1) ] in
  Shadow.with_shadow heap (fun sh ->
      check bool_c "clean read falls through to the heap" true
        (Shadow.read_before sh id == Heap.get heap id);
      check bool_c "no saved payload" true (Shadow.saved_payload sh id = None))

let test_shadow_sees_free () =
  let heap = Heap.create () in
  let id = Heap.alloc_object heap ~cls:"P" [ ("x", Value.Int 7) ] in
  Shadow.with_shadow heap (fun sh ->
      Heap.free heap id;
      check bool_c "freed object is dirty" true (Shadow.is_dirty sh id);
      check bool_c "gone from the heap" false (Heap.mem heap id);
      (* read_before stays total for objects that existed at open time *)
      check bool_c "payload preserved" true
        (Test_heap.saved_field (Shadow.read_before sh id) "x" = Some (Value.Int 7)))

let test_nested_shadows_independent () =
  let heap = Heap.create () in
  let id = Heap.alloc_object heap ~cls:"P" [ ("x", Value.Int 0) ] in
  Shadow.with_shadow heap (fun outer ->
      Heap.set_field heap id "x" (Value.Int 1);
      Shadow.with_shadow heap (fun inner ->
          check int_c "inner opens clean" 0 (Shadow.dirty_count inner);
          Heap.set_field heap id "x" (Value.Int 2);
          (* each shadow keeps its own before-state *)
          check bool_c "inner before" true
            (Test_heap.saved_field (Shadow.read_before inner id) "x" = Some (Value.Int 1));
          check bool_c "outer before" true
            (Test_heap.saved_field (Shadow.read_before outer id) "x" = Some (Value.Int 0))))

(* ------------------------------------------------------------------ *)
(* (b) Lockstep comparison and before-form reconstruction             *)
(* ------------------------------------------------------------------ *)

(* root -> child, plus a bystander object not reachable from root. *)
let fixture heap =
  let child = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 7) ] in
  let root =
    Heap.alloc_object heap ~cls:"R" [ ("c", Value.Ref child); ("n", Value.Null) ]
  in
  let bystander = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 0) ] in
  (root, child, bystander)

(* The injection check's one walk: the entry-time view against the
   current one. *)
let unchanged sh roots =
  Object_graph.first_diff ~read_a:(Shadow.read_before sh) ~read_b:(Heap.get (Shadow.heap sh))
    roots
  = None

let before_form sh roots = Object_graph.canonical_many_via (Shadow.read_before sh) roots

let test_unreachable_mutation_is_fast_path_atomic () =
  let heap = Heap.create () in
  let root, _, bystander = fixture heap in
  let roots = [ Value.Ref root ] in
  let entry = Object_graph.canonical_many heap roots in
  Shadow.with_shadow heap (fun sh ->
      Heap.set_field heap bystander "v" (Value.Int 99);
      check int_c "bystander write recorded" 1 (Shadow.dirty_count sh);
      check bool_c "a write outside the snapshot leaves it unchanged" true (unchanged sh roots);
      (* the slow path would agree: the reconstructed before-form is the
         entry form, and so is the current one *)
      check bool_c "before == entry" true
        (Object_graph.equal entry (before_form sh roots));
      check bool_c "after == entry" true
        (Object_graph.equal entry (Object_graph.canonical_many heap roots)))

let test_new_object_linked_in_is_detected () =
  let heap = Heap.create () in
  let root, _, _ = fixture heap in
  let roots = [ Value.Ref root ] in
  let entry = Object_graph.canonical_many heap roots in
  Shadow.with_shadow heap (fun sh ->
      (* allocate during the call, then link it under the root: the link
         dirties the root, which is what makes the new object matter *)
      let fresh = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 5) ] in
      check int_c "allocation alone is not a mutation" 0 (Shadow.dirty_count sh);
      Heap.set_field heap root "n" (Value.Ref fresh);
      check bool_c "the link changes the snapshot" false (unchanged sh roots);
      let before = before_form sh roots in
      let after = Object_graph.canonical_many heap roots in
      check bool_c "before == entry (new object invisible)" true
        (Object_graph.equal entry before);
      check bool_c "after differs" false (Object_graph.equal before after);
      check bool_c "diff names the mutated field" true
        (Object_graph.diff before after = Some "this[0].n"))

(* A link moved to an object of the same class whose field set differs:
   once by a name that sorts first, once by one that sorts last, where
   the shared names hold equal values and only the field count tells
   the two apart. *)
let test_other_field_set_of_one_class () =
  List.iter
    (fun extra ->
      let heap = Heap.create () in
      let x = Heap.alloc_object heap ~cls:"A" [ ("p", Value.Null); ("v", Value.Int 1) ] in
      let y =
        Heap.alloc_object heap ~cls:"A" ((extra, Value.Null) :: [ ("p", Value.Null); ("v", Value.Int 1) ])
      in
      let root = Heap.alloc_object heap ~cls:"R" [ ("c", Value.Ref x) ] in
      let roots = [ Value.Ref root ] in
      Shadow.with_shadow heap (fun sh ->
          Heap.set_field heap root "c" (Value.Ref y);
          let before = before_form sh roots and after = Object_graph.canonical_many heap roots in
          let read_before = Shadow.read_before sh and read_now = Heap.get heap in
          check Alcotest.(option string) (extra ^ ": forward") (Object_graph.diff before after)
            (Object_graph.first_diff ~read_a:read_before ~read_b:read_now roots);
          check Alcotest.(option string) (extra ^ ": backward") (Object_graph.diff after before)
            (Object_graph.first_diff ~read_a:read_now ~read_b:read_before roots);
          check Alcotest.(option string) (extra ^ ": path") (Some "this[0].c")
            (Object_graph.first_diff ~read_a:read_before ~read_b:read_now roots)))
    [ "a"; "z" ]

let test_aliased_mutation_consistent () =
  let heap = Heap.create () in
  let shared = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let a = Heap.alloc_object heap ~cls:"A" [ ("c", Value.Ref shared) ] in
  let b = Heap.alloc_object heap ~cls:"B" [ ("c", Value.Ref shared) ] in
  let roots = [ Value.Ref a; Value.Ref b ] in
  let entry = Object_graph.canonical_many heap roots in
  Shadow.with_shadow heap (fun sh ->
      (* one write, seen through both aliases *)
      Heap.set_field heap shared "v" (Value.Int 2);
      check int_c "one dirty object" 1 (Shadow.dirty_count sh);
      check bool_c "the write is seen through either root" false (unchanged sh roots);
      let before = before_form sh roots in
      check bool_c "reconstruction preserves sharing" true
        (Object_graph.equal entry before))

let test_rollback_restores_before_equality () =
  let heap = Heap.create () in
  let root, child, _ = fixture heap in
  let roots = [ Value.Ref root ] in
  let entry = Object_graph.canonical_many heap roots in
  Shadow.with_shadow heap (fun sh ->
      (* a nested masked call: checkpoint, mutation, rollback *)
      Checkpoint.with_checkpoint heap roots (fun cp ->
          Heap.set_field heap child "v" (Value.Int 42);
          Checkpoint.rollback cp);
      (* the rollback touched the object, so it is dirty — but its saved
         payload equals the restored one, and the verdict comes out
         atomic through the comparison, not the fast path *)
      check bool_c "rollback leaves the object dirty" true (Shadow.is_dirty sh child);
      check bool_c "the walk finds the rolled-back graph unchanged" true (unchanged sh roots);
      let before = before_form sh roots in
      let after = Object_graph.canonical_many heap roots in
      check bool_c "before == entry" true (Object_graph.equal entry before);
      check bool_c "before == after (rolled back)" true (Object_graph.equal before after))

(* The lockstep comparator against the canonical forms it replaces:
   after random mutations under a shadow — aliasing and cycles through
   the "p" links, fresh objects and arrays linked in, links moved
   between objects of one class whose field sets differ (by names
   sorting before, between and after the others), array slots
   overwritten, unlinked objects freed, checkpoint
   rollbacks — [first_diff] between the entry-time and current views of
   several (possibly duplicate, possibly primitive) roots is exactly
   [diff] of their canonical forms, in both directions, and [None]
   exactly when the forms are [equal].  Generators are shared with the
   checkpoint suite. *)
let first_diff_prop =
  QCheck2.Test.make ~name:"first_diff == diff of canonical forms" ~count:400
    QCheck2.Gen.(quad (int_range 2 16) (int_range 0 6) (int_range 1 3) int)
    (fun (n, steps, nroots, seed) ->
      let heap = Heap.create () in
      let rs = Random.State.make [| seed |] in
      let graph = Test_checkpoint.build_random_graph heap rs n in
      let pick a = a.(Random.State.int rs (Array.length a)) in
      (* class A objects carrying four field sets; the instances of one
         set share its layout *)
      let layouts =
        Array.map
          (fun extra -> Heap.layout ([ "v"; "p" ] @ extra))
          [| [ "a"; "q"; "z" ]; [ "a" ]; [ "q" ]; [ "z" ] |]
      in
      let extras =
        Array.init (1 + Random.State.int rs 4) (fun i ->
            let id = Heap.alloc_layout heap ~cls:"A" (if i = 0 then layouts.(0) else pick layouts) in
            (* [v] drawn as [build_random_graph] draws it, so an extra can
               equal a graph object on every field the two share *)
            Heap.set_field heap id "v" (Value.Int (Random.State.int rs 5));
            id)
      in
      let ids = Array.append graph extras in
      let slot () =
        match Random.State.int rs 3 with
        | 0 -> Value.Ref (pick ids)
        | 1 -> Value.Int (Random.State.int rs 3)
        | _ -> Value.Null
      in
      (* writes [name] of an object that has it, as [extras.(0)] does *)
      let set_some name v =
        let owners = List.filter (fun id -> Heap.get_field heap id name <> None) (Array.to_list ids) in
        Heap.set_field heap (List.nth owners (Random.State.int rs (List.length owners))) name v
      in
      let arr = Heap.alloc_array heap (Array.init (1 + Random.State.int rs 3) (fun _ -> slot ())) in
      set_some "a" (Value.Ref arr);
      let roots =
        List.init nroots (fun _ ->
            if Random.State.int rs 8 = 0 then Value.Int 0 else Value.Ref (pick ids))
      in
      let sh = Shadow.open_ heap in
      let storm () =
        Test_checkpoint.mutate_randomly heap rs ~targets:ids ids steps;
        for _ = 1 to Random.State.int rs 3 do
          match Random.State.int rs 8 with
          | 0 | 1 -> ignore (Heap.set_elem heap arr (Random.State.int rs 3) (slot ()) : bool)
          | 2 ->
            let fresh = Heap.alloc_array heap (Array.init (Random.State.int rs 4) (fun _ -> slot ())) in
            set_some "a" (Value.Ref fresh)
          | 3 -> set_some (if Random.State.bool rs then "q" else "z") (slot ())
          | _ -> Heap.set_field heap (pick ids) "p" (Value.Ref (pick ids))
        done
      in
      if Random.State.bool rs then
        Checkpoint.with_checkpoint heap roots (fun cp ->
            storm ();
            if Random.State.bool rs then Checkpoint.rollback cp)
      else storm ();
      (* free what the roots no longer reach, as the collector would *)
      let live = Object_graph.reachable_via (Heap.get heap) roots in
      Array.iter
        (fun id ->
          if (not (Hashtbl.mem live id)) && Random.State.bool rs then Heap.free heap id)
        ids;
      let before = before_form sh roots and after = Object_graph.canonical_many heap roots in
      let read_before = Shadow.read_before sh and read_now = Heap.get heap in
      let forward = Object_graph.first_diff ~read_a:read_before ~read_b:read_now roots in
      let backward = Object_graph.first_diff ~read_a:read_now ~read_b:read_before roots in
      Shadow.close sh;
      forward = Object_graph.diff before after
      && backward = Object_graph.diff after before
      && (forward = None) = Object_graph.equal before after)

(* ------------------------------------------------------------------ *)
(* (c) End-to-end: cow detection identical to the eager oracle         *)
(* ------------------------------------------------------------------ *)

(* As in test_campaign: equivalence is independent of the configuration,
   so the full app x flavor matrix runs with a slimmed-down injection
   set to keep the suite fast. *)
let matrix_config =
  { Config.default with
    Config.runtime_exceptions = [ "NullPointerException" ];
    prune = Config.Prune_drop }

let with_mode config mode = { config with Config.snapshot_mode = mode }

let check_same_detection name eager cow =
  Alcotest.(check int)
    (name ^ ": same run count")
    (List.length eager.Detect.runs)
    (List.length cow.Detect.runs);
  Alcotest.(check bool)
    (name ^ ": identical run records (marks, exn ids, outputs)")
    true
    (eager.Detect.runs = cow.Detect.runs);
  Alcotest.(check int) (name ^ ": same injections") eager.Detect.injections
    cow.Detect.injections;
  Alcotest.(check bool) (name ^ ": same transparency") eager.Detect.transparent
    cow.Detect.transparent;
  let ce = Classify.classify eager and cc = Classify.classify cow in
  Alcotest.(check bool)
    (name ^ ": identical classification")
    true
    (Classify.reports ce = Classify.reports cc
    && ce.Classify.class_verdicts = cc.Classify.class_verdicts)

let check_cow_matches_eager config (app : Registry.t) flavor () =
  let program = parse app.Registry.source in
  let run mode = Detect.run ~config:(with_mode config mode) ~flavor program in
  check_same_detection app.Registry.name (run Config.Snapshot_eager) (run Config.Snapshot_cow)

let equivalence_cases =
  List.concat_map
    (fun (app : Registry.t) ->
      List.map
        (fun flavor ->
          Alcotest.test_case
            (Printf.sprintf "cow == eager %s (%s)" app.Registry.name
               (Detect.flavor_name flavor))
            `Slow
            (check_cow_matches_eager matrix_config app flavor))
        [ Detect.Source_weaving; Detect.Load_time_filters ])
    Registry.catalog

(* The paths cow serves by default beyond the slimmed matrix above:
   the CLI's full configuration, unpruned and with coalesce pruning,
   concurrent apps under a schedule sweep, and a parallel campaign. *)
let default_cases =
  List.concat_map
    (fun prune ->
      let config = { Config.default with Config.prune } in
      List.map
        (fun (app : Registry.t) ->
          Alcotest.test_case
            (Printf.sprintf "cow == eager %s (%s)" app.Registry.name
               (Config.prune_name prune))
            `Slow
            (check_cow_matches_eager config app (Harness.flavor_of_suite app.Registry.suite)))
        Registry.catalog)
    [ Config.Prune_off; Config.Prune_coalesce ]

let sweep_cases =
  let config = { Config.default with Config.schedules = [ "slice:1"; "slice:2"; "pct:2:5" ] } in
  List.concat_map
    (fun name ->
      let app = Option.get (Registry.find name) in
      List.map
        (fun flavor ->
          Alcotest.test_case
            (Printf.sprintf "cow == eager %s swept (%s)" name (Detect.flavor_name flavor))
            `Quick
            (check_cow_matches_eager config app flavor))
        [ Detect.Source_weaving; Detect.Load_time_filters ])
    [ "StripedMap"; "BoundedBuffer"; "WorkQueue" ]

let test_campaign_cow_matches_sequential_eager () =
  let app = Option.get (Registry.find "RBTree") in
  let program = parse app.Registry.source in
  let flavor = Harness.flavor_of_suite app.Registry.suite in
  let eager =
    Detect.run
      ~config:(with_mode Config.default Config.Snapshot_eager)
      ~flavor program
  in
  let cow, _ =
    Failatom_campaign.Campaign.run
      ~config:(with_mode Config.default Config.Snapshot_cow)
      ~flavor ~jobs:2 program
  in
  check_same_detection "RBTree campaign" eager cow

(* Re-validating an already-masked program layers cow detection
   snapshots over the wrappers' lazy checkpoints: shadows and
   checkpoint shadows nest on the same heap. *)
let test_cow_on_masked_program () =
  let app = Option.get (Registry.find "LinkedList") in
  let program = parse app.Registry.source in
  let run mode =
    let config = with_mode matrix_config mode in
    let outcome = Mask.correct ~config ~flavor:Detect.Source_weaving program in
    ( Detect.run ~config ~flavor:Detect.Source_weaving
        ~prepare:(Mask.register_hooks config)
        outcome.Mask.corrected,
      outcome )
  in
  let eager, oe = run Config.Snapshot_eager in
  let cow, oc = run Config.Snapshot_cow in
  Alcotest.(check bool)
    "same wrapped set" true
    (Method_id.Set.equal oe.Mask.wrapped oc.Mask.wrapped);
  check_same_detection "masked LinkedList" eager cow

let suite =
  [ Alcotest.test_case "shadow records first write" `Quick test_shadow_records_first_write;
    Alcotest.test_case "shadow clean read" `Quick test_shadow_read_before_clean;
    Alcotest.test_case "shadow sees free" `Quick test_shadow_sees_free;
    Alcotest.test_case "nested shadows independent" `Quick test_nested_shadows_independent;
    Alcotest.test_case "unreachable mutation fast path" `Quick
      test_unreachable_mutation_is_fast_path_atomic;
    Alcotest.test_case "new object linked in" `Quick test_new_object_linked_in_is_detected;
    Alcotest.test_case "other field set of one class" `Quick test_other_field_set_of_one_class;
    Alcotest.test_case "aliased mutation" `Quick test_aliased_mutation_consistent;
    Alcotest.test_case "rollback under shadow" `Quick test_rollback_restores_before_equality;
    QCheck_alcotest.to_alcotest first_diff_prop;
    Alcotest.test_case "cow on masked program" `Slow test_cow_on_masked_program;
    Alcotest.test_case "2-domain cow campaign == sequential eager (RBTree)" `Quick
      test_campaign_cow_matches_sequential_eager ]
  @ equivalence_cases @ default_cases @ sweep_cases
