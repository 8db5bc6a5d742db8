(* Workload application tests: every registered application must run
   standalone, pass its own assertions, survive instrumentation
   transparently, and produce the expected set of failure non-atomic
   methods (a regression guard on the detector AND on the workloads).

   [failatom experiments] runs the sweep over the 16 Table 1
   applications and prints Table 1 and Figures 2-4 from it; here each
   app is detected once, in the flavor the paper used for its suite. *)

open Failatom_core
open Failatom_apps

(* Expected non-atomic methods per application: (pure, conditional). *)
let expected : (string * (string list * string list)) list =
  [ ( "adaptorChain",
      ( [ "BatchAdaptor.consume"; "BatchAdaptor.flush"; "FilterAdaptor.consume";
          "RoundRobinAdaptor.consume"; "StampAdaptor.consume";
          "ThrottleAdaptor.consume" ],
        (* KeyRouterAdaptor feeds sinks whose consume is atomic, so it
           classifies atomic in this wiring *)
        [ "CountingAdaptor.consume"; "MapAdaptor.consume"; "ScComponent.emit" ] ) );
    ( "stdQ",
      ( [ "PriorityQueue.popMin"; "PriorityQueue.push"; "PriorityQueue.siftDown";
          "PriorityQueue.siftUp"; "RingDeque.pushBack"; "RingDeque.pushFront" ],
        [ "BoundedQueue.enqueue"; "StdQueue.enqueueFront" ] ) );
    ( "CircularList",
      ( [ "CircularIter.advance"; "CircularList.addFront"; "CircularList.init";
          "CircularList.rotate" ],
        [] ) );
    ( "Dynarray",
      ( [ "Dynarray.add"; "Dynarray.insertAt"; "Dynarray.removeRange" ],
        [ "SortedDynarray.insertSorted" ] ) );
    ( "HashedMap",
      ( [ "HashedMap.put"; "HashedMap.putAll"; "HashedMap.rehash" ], [] ) );
    ( "HashedSet",
      ( [ "HashedMap.put"; "HashedMap.rehash"; "HashedSet.includeAll" ],
        [ "HashedSet.include" ] ) );
    ( "LLMap", ( [ "LLMap.get"; "LLMap.merge"; "LLMap.remove" ], [] ) );
    ( "LinkedBuffer",
      ( [ "LinkedBuffer.append"; "LinkedBuffer.appendAll"; "LinkedBuffer.drain";
          "LinkedBuffer.init"; "LinkedBuffer.take" ],
        [] ) );
    ( "LinkedList",
      ( [ "LinkedList.addAllFirst"; "LinkedList.addFirst"; "LinkedList.insertAt";
          "LinkedList.removeAt" ],
        [ "ListStack.push" ] ) );
    ( "RBMap",
      ( [ "RBEngine.collectKeys"; "RBEngine.deleteNode"; "RBEngine.fixupAfterDelete";
          "RBEngine.fixupAfterInsert"; "RBEngine.insertNode"; "RBMap.deleteKey";
          "RBMap.removeKey" ],
        [ "RBMap.put" ] ) );
    ( "RBTree",
      ( [ "RBEngine.collectKeys"; "RBEngine.deleteNode"; "RBEngine.fixupAfterDelete";
          "RBEngine.fixupAfterInsert"; "RBEngine.insertNode"; "RBTree.insertAll" ],
        [ "RBTree.insert"; "RBTree.removeElem" ] ) ) ]

let all_apps_present () =
  Alcotest.(check int) "16 applications registered" 16 (List.length Registry.all);
  Alcotest.(check int) "6 C++ apps" 6
    (List.length (List.filter (fun a -> a.Registry.suite = Registry.Cpp) Registry.all));
  List.iter
    (fun (name, _) ->
      if Registry.find name = None then Alcotest.failf "app %s missing" name)
    expected

let run_standalone (app : Registry.t) () =
  let output = Harness.run_app app in
  Alcotest.(check bool) (app.Registry.name ^ " produced output") true
    (String.length output > 0)

let detect_and_check (name, (pure, conditional)) () =
  let app = Option.get (Registry.find name) in
  let o = Harness.detect_app app in
  Alcotest.(check bool) "transparent" true o.Harness.detection.Detect.transparent;
  Alcotest.(check bool) "injections happened" true
    (o.Harness.detection.Detect.injections > 0);
  let names v =
    List.map Method_id.to_string
      (match v with
       | `Pure -> Classify.pure_methods o.Harness.classification
       | `Cond -> Classify.conditional_methods o.Harness.classification)
  in
  Alcotest.(check (list string)) (name ^ " pure set") pure (names `Pure);
  Alcotest.(check (list string)) (name ^ " conditional set") conditional (names `Cond)

(* §6.1 case study: the trivial fixes reduce the pure non-atomic set of
   LinkedList to the single method that has no local fix. *)
let test_case_study_reduction () =
  let buggy = Harness.detect_app (Option.get (Registry.find "LinkedList")) in
  let fixed = Harness.detect_app Registry.linked_list_fixed in
  let pure o = Classify.pure_methods o.Harness.classification in
  Alcotest.(check int) "buggy pure count" 4 (List.length (pure buggy));
  Alcotest.(check (list string)) "fixed pure set" [ "LinkedList.addAllFirst" ]
    (List.map Method_id.to_string (pure fixed));
  (* call-weighted share also collapses, as in the paper (7.8% -> <0.2%
     in their numbers; here the trend, not the absolute value) *)
  let pure_share o =
    let c = Classify.call_counts o.Harness.classification in
    float_of_int c.Classify.pure /. float_of_int (Classify.total c)
  in
  Alcotest.(check bool) "call share shrinks" true (pure_share fixed < pure_share buggy)

(* Both flavors agree on a full workload application. *)
let test_flavor_agreement_on_app () =
  let app = Option.get (Registry.find "Dynarray") in
  let source = Harness.detect_app ~flavor:Detect.Source_weaving app in
  let binary = Harness.detect_app ~flavor:Detect.Load_time_filters app in
  let sig_of o =
    List.map
      (fun (r : Classify.method_report) ->
        (Method_id.to_string r.Classify.id, Classify.verdict_name r.Classify.verdict))
      (Classify.reports o.Harness.classification)
  in
  Alcotest.(check (list (pair string string))) "flavors agree" (sig_of source)
    (sig_of binary)

let suite =
  Alcotest.test_case "registry complete" `Quick all_apps_present
  :: List.map
       (fun app ->
         Alcotest.test_case ("standalone " ^ app.Registry.name) `Quick
           (run_standalone app))
       Registry.catalog
  @ List.map
      (fun ((name, _) as entry) ->
        Alcotest.test_case ("detect " ^ name) `Slow (detect_and_check entry))
      expected
  @ [ Alcotest.test_case "case study reduction" `Slow test_case_study_reduction;
      Alcotest.test_case "flavor agreement on app" `Slow test_flavor_agreement_on_app ]
