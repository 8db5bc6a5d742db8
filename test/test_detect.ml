(* Detection-phase tests: ground truth on the synthetic benchmark in
   BOTH implementation flavors, flavor equivalence, run accounting,
   transparency, and the analyzer's injectable-exception sets. *)

open Failatom_core
open Failatom_apps

let verdict_t =
  Alcotest.testable
    (Fmt.of_to_string Classify.verdict_name)
    (fun (a : Classify.verdict) b -> a = b)

let detect flavor =
  let program = Failatom_minilang.Minilang.parse Synthetic.source in
  Detect.run ~flavor program

let classification flavor = Classify.classify (detect flavor)

let check_ground_truth flavor () =
  let c = classification flavor in
  List.iter
    (fun (id, expected) ->
      match Classify.verdict c id with
      | Some got ->
        Alcotest.check verdict_t (Method_id.to_string id) expected got
      | None -> Alcotest.failf "method %s not classified" (Method_id.to_string id))
    Synthetic.expectations;
  (* no unexpected methods *)
  Alcotest.(check int) "all used methods covered"
    (List.length Synthetic.expectations)
    (List.length (Classify.reports c))

let test_flavor_equivalence () =
  (* The paper's two implementations must agree method by method. *)
  let cs = classification Detect.Source_weaving in
  let cb = classification Detect.Load_time_filters in
  List.iter
    (fun (r : Classify.method_report) ->
      match Classify.verdict cb r.Classify.id with
      | Some got ->
        Alcotest.check verdict_t
          ("flavors agree on " ^ Method_id.to_string r.Classify.id)
          r.Classify.verdict got
      | None ->
        Alcotest.failf "binary flavor misses %s" (Method_id.to_string r.Classify.id))
    (Classify.reports cs)

let test_injection_accounting () =
  let ds = detect Detect.Source_weaving in
  let db = detect Detect.Load_time_filters in
  Alcotest.(check bool) "some injections happened" true (ds.Detect.injections > 0);
  Alcotest.(check int) "flavors inject the same count" ds.Detect.injections
    db.Detect.injections;
  (* each recorded run armed a distinct injection point *)
  let points =
    List.map (fun (r : Marks.run_record) -> r.Marks.injection_point) ds.Detect.runs
  in
  Alcotest.(check int) "distinct injection points"
    (List.length points)
    (List.length (List.sort_uniq compare points));
  (* exactly one probe run (the final no-injection one) is recorded *)
  let probes =
    List.filter (fun (r : Marks.run_record) -> r.Marks.injected = None) ds.Detect.runs
  in
  Alcotest.(check int) "one probe run" 1 (List.length probes);
  Alcotest.(check int) "injections exclude the probe"
    (List.length ds.Detect.runs - 1)
    ds.Detect.injections

let test_transparency () =
  let d = detect Detect.Source_weaving in
  Alcotest.(check bool) "probe run matches baseline output" true d.Detect.transparent

let test_analyzer_injectable_sets () =
  let program = Failatom_minilang.Minilang.parse Synthetic.source in
  let analyzer = Analyzer.analyze Config.default program in
  (* declared throws first, then the generic runtime exceptions *)
  Alcotest.(check (list string)) "declared + generic"
    [ "IllegalArgumentException"; "NullPointerException"; "OutOfMemoryError" ]
    (Analyzer.injectable_for analyzer (Method_id.make "Unit" "validateThenMutate"));
  Alcotest.(check (list string)) "generic only"
    [ "NullPointerException"; "OutOfMemoryError" ]
    (Analyzer.injectable_for analyzer (Method_id.make "Unit" "reader"));
  (* a declared generic exception is not duplicated *)
  Alcotest.(check (list string)) "no duplicates"
    [ "OutOfMemoryError"; "NullPointerException" ]
    (Analyzer.injectable_for analyzer (Method_id.make "Unit" "mutateThenCall"))

let test_runtime_exception_config () =
  let config = { Config.default with Config.runtime_exceptions = [] } in
  let program = Failatom_minilang.Minilang.parse Synthetic.source in
  let d = Detect.run ~config program in
  let d_full = detect Detect.Source_weaving in
  Alcotest.(check bool) "fewer injection points without generics" true
    (d.Detect.injections < d_full.Detect.injections)

let test_marks_have_diff_paths () =
  let d = detect Detect.Source_weaving in
  let has_diff =
    List.exists
      (fun (r : Marks.run_record) ->
        List.exists
          (fun (m : Marks.mark) -> (not m.Marks.atomic) && m.Marks.diff_path <> None)
          r.Marks.marks)
      d.Detect.runs
  in
  Alcotest.(check bool) "non-atomic marks carry diff paths" true has_diff

let test_detection_error_on_broken_workload () =
  let program =
    Failatom_minilang.Minilang.parse
      {|
class A { method m() { return unknown_variable; } }
function main() { return new A().m(); }
|}
  in
  match Detect.run program with
  | _ -> Alcotest.fail "expected Detection_error"
  | exception Detect.Detection_error _ -> ()
  | exception Failatom_minilang.Compile.Runtime_error _ -> ()

(* One table names the flavors on the wire: each name maps back to its
   flavor, and nothing else parses. *)
let test_flavor_wire_names () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Detect.flavor_name f) true
        (Detect.flavor_of_wire_name (Detect.flavor_wire_name f) = Some f))
    [ Detect.Source_weaving; Detect.Load_time_filters ];
  Alcotest.(check (list string)) "wire names" [ "source"; "binary" ]
    (List.map fst Detect.flavor_wire_names);
  Alcotest.(check bool) "unknown name" true (Detect.flavor_of_wire_name "bytecode" = None)

(* The eager oracle canonicalizes afresh for every snapshot it takes
   (at call entry) and again at each exceptional exit, all timed under
   [detect.canonicalize]. *)
let test_eager_oracle_canonicalizes () =
  let module Obs = Failatom_obs.Obs in
  Obs.with_enabled true (fun () ->
      Obs.reset ();
      let program = Failatom_minilang.Minilang.parse Synthetic.source in
      ignore
        (Detect.run
           ~config:{ Config.default with Config.snapshot_mode = Config.Snapshot_eager }
           program);
      let snap = Obs.snapshot () in
      let snapshots =
        List.assoc_opt "detect.snapshots_taken" snap.Obs.s_counters
        |> Option.value ~default:0
      in
      let canons =
        match List.assoc_opt "detect.canonicalize" snap.Obs.s_histograms with
        | Some h -> h.Obs.hs_count
        | None -> 0
      in
      Alcotest.(check bool) "snapshots taken" true (snapshots > 0);
      Alcotest.(check bool) "one form per snapshot, more on exceptional exits" true
        (canons > snapshots))

let suite =
  [ Alcotest.test_case "ground truth (source weaving)" `Quick
      (check_ground_truth Detect.Source_weaving);
    Alcotest.test_case "ground truth (load-time filters)" `Quick
      (check_ground_truth Detect.Load_time_filters);
    Alcotest.test_case "flavor equivalence" `Quick test_flavor_equivalence;
    Alcotest.test_case "injection accounting" `Quick test_injection_accounting;
    Alcotest.test_case "transparency" `Quick test_transparency;
    Alcotest.test_case "injectable sets" `Quick test_analyzer_injectable_sets;
    Alcotest.test_case "runtime exception config" `Quick test_runtime_exception_config;
    Alcotest.test_case "diff paths recorded" `Quick test_marks_have_diff_paths;
    Alcotest.test_case "flavor wire names" `Quick test_flavor_wire_names;
    Alcotest.test_case "eager oracle canonicalizes" `Quick test_eager_oracle_canonicalizes;
    Alcotest.test_case "broken workload rejected" `Quick test_detection_error_on_broken_workload ]
