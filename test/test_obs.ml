(* The observability layer: metric semantics, the enable gate, the
   failatom.metrics/1 JSON schema (golden-checked byte for byte), the
   failatom stats table rendering, and counter/journal consistency on a
   real campaign.

   Golden files live in test/golden/ and are declared as test deps in
   test/dune.  To regenerate after an intentional schema or layout
   change:

     cd test && GOLDEN_UPDATE=1 ../_build/default/test/test_main.exe test obs *)

module Obs = Failatom_obs.Obs
open Failatom_core

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let golden_check name actual =
  let path = Filename.concat "golden" name in
  let actual = actual ^ "\n" in
  if Sys.getenv_opt "GOLDEN_UPDATE" <> None then begin
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc
  end
  else Alcotest.(check string) (name ^ " matches golden") (read_file path) actual

(* ---------------- metric semantics ---------------- *)

let test_disabled_is_noop () =
  Obs.set_enabled false;
  let c = Obs.counter "test.gate.counter" in
  let g = Obs.gauge "test.gate.gauge" in
  let h = Obs.histogram "test.gate.hist" in
  Obs.incr c;
  Obs.add c 41;
  Obs.set_gauge g 7;
  Obs.observe h 123;
  Alcotest.(check int) "counter untouched" 0 (Obs.counter_value c);
  Alcotest.(check int) "gauge untouched" 0 (Obs.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (Obs.histogram_count h)

let test_enabled_records () =
  Obs.with_enabled true (fun () ->
      Obs.reset ();
      let c = Obs.counter "test.rec.counter" in
      let g = Obs.gauge "test.rec.gauge" in
      let h = Obs.histogram "test.rec.hist" in
      Obs.incr c;
      Obs.add c 41;
      Obs.set_gauge g 7;
      Obs.gauge_to_max g 3;
      Obs.gauge_to_max g 9;
      List.iter (Obs.observe h) [ 1; 2; 3; 4 ];
      Alcotest.(check int) "counter" 42 (Obs.counter_value c);
      Alcotest.(check int) "gauge high-water" 9 (Obs.gauge_value g);
      Alcotest.(check int) "histogram count" 4 (Obs.histogram_count h);
      let hs = List.assoc "test.rec.hist" (Obs.snapshot ()).Obs.s_histograms in
      Alcotest.(check int) "histogram sum" 10 hs.Obs.hs_sum;
      Alcotest.(check int) "histogram min" 1 hs.Obs.hs_min;
      Alcotest.(check int) "histogram max" 4 hs.Obs.hs_max;
      Obs.reset ();
      Alcotest.(check int) "reset zeroes counter" 0 (Obs.counter_value c);
      Alcotest.(check int) "reset zeroes histogram" 0 (Obs.histogram_count h))

let test_span_timing () =
  Obs.with_enabled true (fun () ->
      Obs.reset ();
      let v = Obs.span "test.span" (fun () -> 13) in
      Alcotest.(check int) "span returns value" 13 v;
      (try Obs.span "test.span" (fun () -> failwith "boom") |> ignore
       with Failure _ -> ());
      Alcotest.(check int) "span records even on raise" 2
        (Obs.histogram_count (Obs.histogram "test.span")))

(* ---------------- interchange: golden schema + roundtrip ----------- *)

(* A hand-built snapshot with stable values: golden tests must not
   depend on real timings. *)
let fixture : Obs.snap =
  { Obs.s_counters =
      [ ("campaign.seed_order_hits", 57);
        ("detect.injections_fired", 922);
        ("detect.points_coalesced", 411);
        ("detect.points_dropped", 0);
        ("detect.points_total", 923);
        ("heap.allocations", 189004);
        ("sched.lock_contention", 18);
        ("sched.preemptions", 3121);
        ("sched.schedules_explored", 4);
        ("sched.switches", 3344);
        ("vm.steps", 6066895) ];
    s_gauges = [ ("campaign.workers", 4) ];
    s_histograms =
      [ ( "campaign.queue_depth",
          { Obs.hs_unit = "items";
            hs_count = 924;
            hs_sum = 3353;
            hs_min = 1;
            hs_max = 4;
            hs_p50 = 4;
            hs_p99 = 4;
            hs_attrs = [] } );
        ( "detect.run_once",
          { Obs.hs_unit = "ns";
            hs_count = 924;
            hs_sum = 4786000000;
            hs_min = 310000;
            hs_max = 83800000;
            hs_p50 = 786432;
            hs_p99 = 50331648;
            hs_attrs = [ ("flavor", "source-weaving"); ("snapshot_mode", "eager") ] } );
        ( "detect.schedule",
          { Obs.hs_unit = "ns";
            hs_count = 4;
            hs_sum = 5200000000;
            hs_min = 1100000000;
            hs_max = 1500000000;
            hs_p50 = 1342177280;
            hs_p99 = 1476395008;
            hs_attrs = [ ("schedule", "slice:1") ] } ) ]
  }

let test_json_golden () = golden_check "metrics.json" (Obs.to_json fixture)

let test_json_roundtrip () =
  let parsed = Obs.parse_json (Obs.to_json fixture) in
  Alcotest.(check bool) "parse_json inverts to_json" true (parsed = fixture)

let test_parse_errors () =
  let rejects name s =
    Alcotest.check_raises name (Obs.Parse_error "") (fun () ->
        try ignore (Obs.parse_json s)
        with Obs.Parse_error _ -> raise (Obs.Parse_error ""))
  in
  rejects "garbage" "not json";
  rejects "wrong schema" {|{"schema": "failatom.metrics/999"}|};
  rejects "truncated" {|{"schema": "failatom.metrics/1", "counters": {|}

let test_stats_golden () =
  let snap = Obs.parse_json (read_file (Filename.concat "golden" "metrics.json")) in
  golden_check "stats.txt" (String.trim (Format.asprintf "%a" Obs.pp_table snap))

(* ---------------- counters vs the campaign journal ----------------- *)

(* The acceptance check behind campaign --metrics-out: after a campaign,
   detect.injections_fired equals the injected runs recorded in the
   journal, and campaign.runs_executed equals the journal's run count
   (the journal records every executed run). *)
let test_campaign_consistency () =
  let app = Option.get (Failatom_apps.Registry.find "Synthetic") in
  let program = Failatom_minilang.Minilang.parse app.Failatom_apps.Registry.source in
  let journal = Filename.temp_file "failatom_obs_journal" ".jnl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove journal)
    (fun () ->
      Obs.with_enabled true (fun () ->
          Obs.reset ();
          let detection, _summary =
            Failatom_campaign.Campaign.run ~jobs:2 ~journal program
          in
          let _, runs = Option.get (Failatom_campaign.Journal.load ~path:journal ()) in
          let injected =
            List.length
              (List.filter
                 (fun (r : Marks.run_record) -> Option.is_some r.Marks.injected)
                 runs)
          in
          Alcotest.(check int) "injections_fired == injected journal runs" injected
            (Obs.counter_value (Obs.counter "detect.injections_fired"));
          Alcotest.(check int) "runs_executed == journal runs" (List.length runs)
            (Obs.counter_value (Obs.counter "campaign.runs_executed"));
          Alcotest.(check bool) "campaign detection transparent" true
            detection.Detect.transparent));
  Obs.reset ()

(* A swept concurrent detection populates the schedule metrics: one
   detect.schedule span per explored spec, and the scheduler counters
   harvested from the per-run VM totals. *)
let test_schedule_metrics () =
  let app = Option.get (Failatom_apps.Registry.find "WorkQueue") in
  let program = Failatom_minilang.Minilang.parse app.Failatom_apps.Registry.source in
  let sweep = [ "coop"; "slice:1"; "slice:2"; "slice:3" ] in
  Obs.with_enabled true (fun () ->
      Obs.reset ();
      let d =
        Detect.run ~config:{ Config.default with Config.schedules = sweep } program
      in
      Alcotest.(check bool) "detection transparent" true d.Detect.transparent;
      Alcotest.(check int) "schedules_explored" (List.length sweep)
        (Obs.counter_value (Obs.counter "sched.schedules_explored"));
      Alcotest.(check int) "one detect.schedule span per spec" (List.length sweep)
        (Obs.histogram_count (Obs.histogram "detect.schedule"));
      Alcotest.(check bool) "preemptions harvested" true
        (Obs.counter_value (Obs.counter "sched.preemptions") > 0);
      Alcotest.(check bool) "switches harvested" true
        (Obs.counter_value (Obs.counter "sched.switches") > 0));
  Obs.reset ()

(* Marks must not depend on whether metrics are enabled: on Synthetic
   and on the apps the bench obs-overhead gate checks (stdQ, LinkedList,
   RBTree), each in its suite's flavor as the gate runs them. *)
let test_marks_unchanged_by_metrics () =
  let module Registry = Failatom_apps.Registry in
  List.iter
    (fun name ->
      let app = Option.get (Registry.find name) in
      let program = Failatom_minilang.Minilang.parse app.Registry.source in
      let flavor = Failatom_apps.Harness.flavor_of_suite app.Registry.suite in
      let off = Detect.run ~flavor program in
      let on = Obs.with_enabled true (fun () -> Detect.run ~flavor program) in
      Alcotest.(check bool) (name ^ ": identical run records") true
        (off.Detect.runs = on.Detect.runs);
      Alcotest.(check bool) (name ^ ": same transparency") off.Detect.transparent
        on.Detect.transparent;
      Obs.reset ())
    [ "Synthetic"; "stdQ"; "LinkedList"; "RBTree" ]

let suite =
  [ Alcotest.test_case "disabled recording is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "enabled recording and reset" `Quick test_enabled_records;
    Alcotest.test_case "span timing" `Quick test_span_timing;
    Alcotest.test_case "metrics.json golden" `Quick test_json_golden;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "stats table golden" `Quick test_stats_golden;
    Alcotest.test_case "campaign counters match journal" `Quick
      test_campaign_consistency;
    Alcotest.test_case "schedule metrics populated by a sweep" `Quick
      test_schedule_metrics;
    Alcotest.test_case "marks unchanged by metrics" `Quick
      test_marks_unchanged_by_metrics ]
