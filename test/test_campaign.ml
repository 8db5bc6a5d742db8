(* Tests of the parallel, resumable detection-campaign engine
   (lib/campaign/): determinism against the sequential detector,
   journal resume, claiming, and walking campaigns (workers forking the
   points they claim, with or without a per-run timeout). *)

open Failatom_core
open Failatom_apps
module Campaign = Failatom_campaign.Campaign
module Scheduler = Failatom_campaign.Scheduler
module Journal = Failatom_campaign.Journal
module Progress = Failatom_campaign.Progress

let parse = Failatom_minilang.Minilang.parse

(* ------------------------------------------------------------------ *)
(* (a) determinism: campaign == sequential on every app, both flavors  *)
(* ------------------------------------------------------------------ *)

(* Determinism is independent of the configuration, so the full
   app x flavor matrix runs with a slimmed-down injection set (one
   runtime exception, injections a method provably cannot raise
   dropped) to keep
   the suite fast on small machines; the default-config path is still
   exercised by the resume and probe tests below. *)
let matrix_config =
  { Config.default with
    Config.runtime_exceptions = [ "NullPointerException" ];
    prune = Config.Prune_drop }

let check_matches_sequential (app : Registry.t) flavor () =
  let program = parse app.Registry.source in
  let seq = Detect.run ~config:matrix_config ~flavor program in
  let par, summary = Campaign.run ~config:matrix_config ~flavor ~jobs:4 program in
  Alcotest.(check int)
    "same run count" (List.length seq.Detect.runs) (List.length par.Detect.runs);
  Alcotest.(check bool) "identical run records" true (seq.Detect.runs = par.Detect.runs);
  Alcotest.(check int) "same injections" seq.Detect.injections par.Detect.injections;
  Alcotest.(check bool) "same transparency" seq.Detect.transparent par.Detect.transparent;
  let cs = Classify.classify seq and cp = Classify.classify par in
  Alcotest.(check bool)
    "identical classification" true
    (Classify.reports cs = Classify.reports cp
    && cs.Classify.class_verdicts = cp.Classify.class_verdicts);
  Alcotest.(check int) "nothing reused" 0 summary.Progress.reused;
  (* A per-run timeout budgets every forked suffix; it must still give
     the unbudgeted detector's run log, in every prune mode (drop also
     on the concurrent apps). *)
  List.iter
    (fun prune ->
      let config = { matrix_config with Config.prune } in
      let what = "budgeted, " ^ Config.prune_name prune in
      let expected = Run_log.save (Detect.run ~config ~flavor program) in
      let fresh, summary =
        Campaign.run ~config ~flavor ~run_timeout_s:600. ~jobs:4 program
      in
      Alcotest.(check string) (what ^ ": run log") expected (Run_log.save fresh);
      Alcotest.(check int) (what ^ ": nothing reused") 0 summary.Progress.reused)
    [ Config.Prune_off; Config.Prune_coalesce; Config.Prune_drop ]

let determinism_cases =
  List.concat_map
    (fun (app : Registry.t) ->
      List.map
        (fun flavor ->
          Alcotest.test_case
            (Printf.sprintf "determinism %s (%s)" app.Registry.name
               (Detect.flavor_name flavor))
            `Slow
            (check_matches_sequential app flavor))
        [ Detect.Source_weaving; Detect.Load_time_filters ])
    Registry.catalog

(* The probe run must stay last and unique under parallel execution. *)
let test_probe_last () =
  let app = Option.get (Registry.find "LinkedList") in
  let result, _ = Campaign.run ~jobs:8 (parse app.Registry.source) in
  let n = List.length result.Detect.runs in
  List.iteri
    (fun i (r : Marks.run_record) ->
      Alcotest.(check bool)
        (Printf.sprintf "run %d injection status" (i + 1))
        (i = n - 1)
        (r.Marks.injected = None))
    result.Detect.runs

(* ------------------------------------------------------------------ *)
(* (b) resume: journaled thresholds are not re-executed                *)
(* ------------------------------------------------------------------ *)

let with_temp_journal f =
  let path = Filename.temp_file "failatom_test" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* Truncates a journal to its header plus the first [keep] complete run
   blocks, plus a torn trailing block as a kill mid-append would leave. *)
let truncate_journal path ~keep =
  let lines = String.split_on_char '\n' (read_file path) in
  let buf = Buffer.create 4096 in
  let kept = ref 0 in
  List.iter
    (fun line ->
      if !kept < keep then begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        if String.equal line "endrun" then incr kept
      end)
    lines;
  Buffer.add_string buf "run 99999\nncalls 7\n";
  write_file path (Buffer.contents buf)

let journal_thresholds path =
  match Journal.load ~path () with
  | None -> []
  | Some (_, runs) -> List.map (fun (r : Marks.run_record) -> r.Marks.injection_point) runs

(* Resumed with and without a per-run timeout. *)
let test_resume () =
  let app = Option.get (Registry.find "LinkedList") in
  let program = parse app.Registry.source in
  let uninterrupted, _ = Campaign.run ~jobs:2 program in
  List.iter
    (fun run_timeout_s ->
      with_temp_journal (fun journal ->
          let _, _ = Campaign.run ?run_timeout_s ~jobs:2 ~journal program in
          let keep = 40 in
          truncate_journal journal ~keep;
          let resumed, summary =
            Campaign.run ?run_timeout_s ~jobs:2 ~journal ~resume:true program
          in
          Alcotest.(check bool)
            "resumed result identical to uninterrupted" true
            (uninterrupted.Detect.runs = resumed.Detect.runs);
          Alcotest.(check bool)
            "same transparency" uninterrupted.Detect.transparent
            resumed.Detect.transparent;
          Alcotest.(check int) "adopted the journaled prefix" keep summary.Progress.reused;
          (* No journaled threshold was re-executed: each appears once. *)
          let thresholds = List.sort compare (journal_thresholds journal) in
          let rec no_dup = function
            | a :: (b :: _ as rest) -> a <> b && no_dup rest
            | [ _ ] | [] -> true
          in
          Alcotest.(check bool) "no threshold executed twice" true (no_dup thresholds);
          (* Resuming a complete journal executes nothing at all. *)
          let again, s2 =
            Campaign.run ?run_timeout_s ~jobs:2 ~journal ~resume:true program
          in
          Alcotest.(check int) "complete journal: nothing executed" 0 s2.Progress.executed;
          Alcotest.(check int)
            "complete journal: everything reused"
            (List.length uninterrupted.Detect.runs)
            s2.Progress.reused;
          Alcotest.(check bool)
            "complete journal: identical result" true
            (uninterrupted.Detect.runs = again.Detect.runs)))
    [ None; Some 600. ]

let test_journal_guards () =
  let program = parse Synthetic.source in
  with_temp_journal (fun journal ->
      let _ = Campaign.run ~jobs:1 ~journal program in
      Alcotest.check_raises "flavor mismatch rejected"
        (Campaign.Campaign_error
           (Printf.sprintf
              "journal %s was recorded with flavor source-weaving, not \
               load-time-filters"
              journal))
        (fun () ->
          ignore
            (Campaign.run ~flavor:Detect.Load_time_filters ~jobs:1 ~journal
               ~resume:true program));
      let other = parse (Option.get (Registry.find "LLMap")).Registry.source in
      Alcotest.check_raises "program mismatch rejected"
        (Campaign.Campaign_error
           (Printf.sprintf "journal %s was recorded for a different program" journal))
        (fun () -> ignore (Campaign.run ~jobs:1 ~journal ~resume:true other)));
  Alcotest.check_raises "resume requires a journal"
    (Campaign.Campaign_error "cannot resume without a journal path")
    (fun () -> ignore (Campaign.run ~jobs:1 ~resume:true program))

(* A journal whose run names a method without a [Class.] part is
   corrupt: resume reports it with its line, like any other malformed
   record. *)
let test_journal_bad_method_id () =
  let program = parse Synthetic.source in
  with_temp_journal (fun journal ->
      let _ = Campaign.run ~jobs:1 ~journal program in
      let text = read_file journal in
      let line = List.length (String.split_on_char '\n' text) + 1 in
      write_file journal (text ^ "run 99999\nmark Foo atomic 0\nncalls 1\nendrun\n");
      Alcotest.check_raises "corrupt journal"
        (Campaign.Campaign_error
           (Printf.sprintf "corrupt journal %s: line %d: not a method id: Foo" journal line))
        (fun () -> ignore (Campaign.run ~jobs:1 ~journal ~resume:true program)))

(* Outputs with spaces, newlines and escapes survive the journal. *)
let test_journal_output_roundtrip () =
  let mark =
    { Marks.meth = Method_id.make "C" "m"; atomic = false; diff_path = Some "a.b c"; exn_id = 3 }
  in
  let runs =
    [ { Marks.injection_point = 1;
        injected = Some (Method_id.make "C" "m", "NullPointerException");
        marks = [ mark ];
        escaped = None;
        output = "line one\nwith spaces  and\ttabs\n\"quotes\" \\backslash\n";
        calls = 12;
        timed_out = false;
        sched = None };
      { Marks.injection_point = 2;
        injected = None;
        marks = [];
        escaped = Some "IOException";
        output = "";
        calls = 9;
        timed_out = false;
        sched = None } ]
  in
  with_temp_journal (fun journal ->
      let w = Journal.create ~path:journal { Journal.flavor = "source-weaving"; program_digest = "abc" } in
      List.iter (Journal.append w) runs;
      Journal.close w;
      match Journal.load ~path:journal () with
      | None -> Alcotest.fail "journal missing"
      | Some (header, loaded) ->
        Alcotest.(check string) "flavor" "source-weaving" header.Journal.flavor;
        Alcotest.(check string) "digest" "abc" header.Journal.program_digest;
        Alcotest.(check bool) "runs round-trip" true (loaded = runs))

(* ------------------------------------------------------------------ *)
(* (c) claiming: journaled points are not run again                    *)
(* ------------------------------------------------------------------ *)

let mk_run ?injected point =
  { Marks.injection_point = point;
    injected;
    marks = [];
    escaped = None;
    output = "";
    calls = 1;
    timed_out = false;
    sched = None }

let fired = (Method_id.make "C" "m", "NullPointerException")

let test_resume_skips_journaled () =
  let journaled = [ mk_run ~injected:fired 1; mk_run ~injected:fired 3 ] in
  let s = Scheduler.create ~journaled () in
  let visit t =
    Scheduler.visit s
      { Prune.site = fst fired; members = [ (t, snd fired) ]; first_visit = false }
  in
  Alcotest.(check bool) "journaled point 1 passed" true (visit 1 = Detect.Pass);
  Alcotest.(check bool) "first gap claimed" true (visit 2 = Detect.Fork);
  Alcotest.(check bool) "journaled point 3 passed" true (visit 3 = Detect.Pass);
  Alcotest.(check bool) "point 4 claimed" true (visit 4 = Detect.Fork);
  Alcotest.(check bool) "a claimed point is passed by other walks" true
    (visit 2 = Detect.Pass)

(* ------------------------------------------------------------------ *)
(* (d) per-run timeouts and cooperative cancellation                   *)
(* ------------------------------------------------------------------ *)

(* The catch handler spins ~2M VM steps, so with a 5ms budget every
   injected run is cut off and recorded as timed out, while the
   baseline run and the final probe (which never enter the handler)
   complete normally — the timed-out no-injection case must NOT
   terminate the detection loop early. *)
let slow_catch_source =
  {|
class Box {
  field v;
  method init() { this.v = 0; }
  method poke() throws IllegalStateException {
    this.v = this.v + 1;
    return this.v;
  }
}
function main() {
  var b = new Box();
  for (var i = 0; i < 5; i = i + 1) {
    try {
      b.poke();
    } catch (IllegalStateException e) {
      var j = 0;
      while (j < 2000000) { j = j + 1; }
      println("recovered");
    }
  }
  println(b.v);
}
|}

let test_run_timeout () =
  let program = parse slow_catch_source in
  let result, _ = Campaign.run ~run_timeout_s:0.005 ~jobs:2 program in
  let timed_out =
    List.filter (fun (r : Marks.run_record) -> r.Marks.timed_out) result.Detect.runs
  in
  Alcotest.(check bool) "some runs timed out" true (timed_out <> []);
  (* every timed-out run had fired its injection (the handler is the
     slow part), and the probe run terminated cleanly *)
  let probe = List.nth result.Detect.runs (List.length result.Detect.runs - 1) in
  Alcotest.(check bool) "probe run completed" false probe.Marks.timed_out;
  Alcotest.(check bool) "probe run is the no-injection run" true
    (probe.Marks.injected = None);
  (* the sequential detector agrees run for run *)
  let seq = Detect.run ~run_timeout_s:0.005 program in
  Alcotest.(check int) "same run count as sequential"
    (List.length seq.Detect.runs)
    (List.length result.Detect.runs)

(* A timed-out run must not poison the run-log round trip. *)
let test_timed_out_run_log_roundtrip () =
  let program = parse slow_catch_source in
  let result = Detect.run ~run_timeout_s:0.005 program in
  let reloaded = Failatom_core.Run_log.load (Failatom_core.Run_log.save result) in
  Alcotest.(check bool) "timed-out flags survive the log" true
    (List.map (fun (r : Marks.run_record) -> r.Marks.timed_out) result.Detect.runs
    = List.map
        (fun (r : Marks.run_record) -> r.Marks.timed_out)
        reloaded.Failatom_core.Run_log.runs)

let test_cancel () =
  let program = parse Synthetic.source in
  Alcotest.check_raises "immediate cancel raises" Campaign.Cancelled (fun () ->
      ignore (Campaign.run ~cancel:(fun () -> true) ~jobs:2 program));
  (* cancelling after N runs stops promptly and keeps the journal *)
  with_temp_journal (fun journal ->
      let enough = Atomic.make false in
      (try
         ignore
           (Campaign.run
              ~cancel:(fun () -> Atomic.get enough)
              ~report:(fun ev ->
                match ev with
                | Progress.Tick { completed; _ } when completed >= 3 ->
                  Atomic.set enough true
                | _ -> ())
              ~jobs:2 ~journal program)
       with Campaign.Cancelled -> ());
      match Journal.load ~path:journal () with
      | None -> Alcotest.fail "cancelled campaign left no journal"
      | Some (_, runs) ->
        Alcotest.(check bool) "journaled runs survive the cancel" true (runs <> []))

(* A torn final journal line (kill mid-append) is tolerated with a
   warning, not an error. *)
let test_journal_torn_tail_warning () =
  let program = parse Synthetic.source in
  with_temp_journal (fun journal ->
      let _ = Campaign.run ~jobs:1 ~journal program in
      (* chop the last line mid-record, no trailing newline *)
      let text = read_file journal in
      write_file journal (String.sub text 0 (String.length text - 9));
      let warned = ref [] in
      (match Journal.load ~warn:(fun msg -> warned := msg :: !warned) ~path:journal () with
       | None -> Alcotest.fail "torn journal must still load"
       | Some (_, runs) -> Alcotest.(check bool) "prefix recovered" true (runs <> []));
      Alcotest.(check bool) "warning emitted" true (!warned <> []);
      (* resuming such a journal surfaces the warning as a progress event *)
      let events = ref [] in
      let _ =
        Campaign.run ~jobs:1 ~journal ~resume:true
          ~report:(fun ev -> events := ev :: !events)
          program
      in
      Alcotest.(check bool) "Progress.Warning reported" true
        (List.exists (function Progress.Warning _ -> true | _ -> false) !events))

(* ------------------------------------------------------------------ *)
(* (e) walking campaigns: workers fork the points they claim           *)
(* ------------------------------------------------------------------ *)

module Obs = Failatom_obs.Obs

let prunes = [ Config.Prune_off; Config.Prune_drop; Config.Prune_coalesce ]

(* Sequential campaigns walk whatever [jobs] is: every worker count
   gives the run-log bytes of the sequential detector, on every
   sequential catalog app, in both flavors, under every pruning mode. *)
let check_walk_matches_detect (app : Registry.t) () =
  let program = parse app.Registry.source in
  List.iter
    (fun flavor ->
      List.iter
        (fun prune ->
          let config = { Config.default with Config.prune } in
          let expected = Run_log.save (Detect.run ~config ~flavor program) in
          List.iter
            (fun jobs ->
              let result, summary = Campaign.run ~config ~flavor ~jobs program in
              let what =
                Printf.sprintf "%s %s %s jobs %d" app.Registry.name
                  (Detect.flavor_name flavor) (Config.prune_name prune) jobs
              in
              Alcotest.(check string) (what ^ ": run log") expected (Run_log.save result);
              Alcotest.(check int) (what ^ ": nothing discarded") 0
                summary.Progress.discarded)
            [ 1; 2; 4; 8 ])
        prunes)
    [ Detect.Source_weaving; Detect.Load_time_filters ]

let walk_cases =
  List.filter_map
    (fun (app : Registry.t) ->
      if app.Registry.suite = Registry.Conc then None
      else
        let speed = if app.Registry.name = "RegExp" then `Slow else `Quick in
        Some
          (Alcotest.test_case ("walking campaign == detect: " ^ app.Registry.name) speed
             (check_walk_matches_detect app)))
    Registry.catalog

(* The journal index of the representative of a coalesced group with at
   least two members, in a journal of a coalescing campaign: keeping the
   blocks up to and including it leaves that group partly on file. *)
let inside_a_group program journal =
  let plain = Failatom_minilang.Compile.image program in
  let flow = Exnflow.analyze plain program in
  let config = { Config.default with Config.prune = Config.Prune_coalesce } in
  let analyzer = Analyzer.analyze config program in
  let compiled = Detect.compile ~plain Detect.Source_weaving program in
  let group = ref None in
  let visit g =
    if Option.is_none !group && List.length g.Prune.members >= 2 then group := Some g;
    Detect.Pass
  in
  ignore (Detect.walk_with ~flow compiled config analyzer ~visit ~forked:(fun _ _ -> ()));
  let rep = fst (Prune.rep (Option.get !group)) in
  let rec index i = function
    | [] -> Alcotest.fail "representative missing from the journal"
    | t :: rest -> if t = rep then i else index (i + 1) rest
  in
  index 0 (journal_thresholds journal)

(* Resume from journals cut at several points, one of them inside a
   coalesced group, with and without a per-run timeout.  Either way no
   run is speculative: every kept record is reused and nothing is
   discarded. *)
let test_walk_resume () =
  let app = Option.get (Registry.find "LinkedList") in
  let program = parse app.Registry.source in
  List.iter
    (fun (prune, run_timeout_s) ->
      let config = { Config.default with Config.prune } in
      let uninterrupted, _ = Campaign.run ~config ~jobs:1 program in
      List.iter
        (fun jobs ->
          with_temp_journal (fun journal ->
              let _ = Campaign.run ~config ?run_timeout_s ~jobs ~journal program in
              let total = List.length (journal_thresholds journal) in
              let keeps =
                [ 1; 17; total / 2; total - 1 ]
                @
                if prune = Config.Prune_coalesce then
                  [ 1 + inside_a_group program journal ]
                else []
              in
              let fresh = read_file journal in
              List.iter
                (fun keep ->
                  write_file journal fresh;
                  truncate_journal journal ~keep;
                  let resumed, summary =
                    Campaign.run ~config ?run_timeout_s ~jobs ~journal ~resume:true program
                  in
                  let what =
                    Printf.sprintf "%s%s jobs %d keep %d" (Config.prune_name prune)
                      (if Option.is_some run_timeout_s then " budgeted" else "")
                      jobs keep
                  in
                  Alcotest.(check string) (what ^ ": result")
                    (Run_log.save uninterrupted) (Run_log.save resumed);
                  Alcotest.(check int) (what ^ ": reused the kept records") keep
                    summary.Progress.reused;
                  Alcotest.(check int) (what ^ ": nothing discarded") 0
                    summary.Progress.discarded;
                  if prune = Config.Prune_off then
                    Alcotest.(check int) (what ^ ": journaled runs not re-executed")
                      summary.Progress.total_runs
                      (summary.Progress.executed + summary.Progress.reused
                     - summary.Progress.discarded);
                  let thresholds = List.sort compare (journal_thresholds journal) in
                  Alcotest.(check int) (what ^ ": each record journaled once")
                    (List.length (List.sort_uniq compare thresholds))
                    (List.length thresholds))
                keeps;
              let _, s =
                Campaign.run ~config ?run_timeout_s ~jobs ~journal ~resume:true program
              in
              Alcotest.(check int)
                (Config.prune_name prune ^ ": complete journal: nothing executed")
                0 s.Progress.executed))
        [ 1; 2 ])
    [ (Config.Prune_off, None); (Config.Prune_coalesce, None);
      (Config.Prune_off, Some 600.); (Config.Prune_coalesce, Some 600.) ]

(* Cancel is polled at every point a walk visits: cancelling after k
   visits raises [Cancelled] with the journal holding what was filed,
   and resuming completes it. *)
let test_walk_cancel_resume () =
  let app = Option.get (Registry.find "LinkedList") in
  let program = parse app.Registry.source in
  let uninterrupted, _ = Campaign.run ~jobs:1 program in
  List.iter
    (fun (jobs, k) ->
      with_temp_journal (fun journal ->
          let polls = Atomic.make 0 in
          Alcotest.check_raises
            (Printf.sprintf "jobs %d: cancel after %d points" jobs k)
            Campaign.Cancelled (fun () ->
              ignore
                (Campaign.run
                   ~cancel:(fun () -> Atomic.fetch_and_add polls 1 >= k)
                   ~jobs ~journal program));
          let filed = List.length (journal_thresholds journal) in
          Alcotest.(check bool) "the cancelled walk filed some runs" true (filed > 0);
          Alcotest.(check bool) "and stopped early" true
            (filed < List.length uninterrupted.Detect.runs);
          let resumed, summary = Campaign.run ~jobs ~journal ~resume:true program in
          Alcotest.(check string) "resume completes the journal"
            (Run_log.save uninterrupted) (Run_log.save resumed);
          Alcotest.(check int) "resume reused every filed run" filed summary.Progress.reused))
    [ (1, 10); (2, 25) ]

let outcome f =
  match f () with
  | result -> Ok (Run_log.save result)
  | exception Detect.Detection_error msg -> Error msg

let result_t = Alcotest.(result string string)

(* A handler that spins until the step limit once [i] reaches 2: the
   third injected run fails, and the campaign reports that run's
   failure whatever the worker count. *)
let spinning_source =
  {|
class Box {
  field v;
  method init() { this.v = 0; }
  method poke() throws IllegalStateException {
    this.v = this.v + 1;
    return this.v;
  }
}
function main() {
  var b = new Box();
  for (var i = 0; i < 4; i = i + 1) {
    try {
      b.poke();
    } catch (IllegalStateException e) {
      while (i >= 2) { }
    }
  }
  println(b.v);
}
|}

let test_walk_errors () =
  let check what program config =
    let expected = outcome (fun () -> Detect.run ~config program) in
    (match expected with
     | Error _ -> ()
     | Ok _ -> Alcotest.failf "%s: the sequential detector did not fail" what);
    List.iter
      (fun jobs ->
        Alcotest.check result_t
          (Printf.sprintf "%s, %s, jobs %d" what (Config.prune_name config.Config.prune) jobs)
          expected
          (outcome (fun () -> fst (Campaign.run ~config ~jobs program))))
      [ 1; 2; 4 ]
  in
  let linked_list = parse (Option.get (Registry.find "LinkedList")).Registry.source in
  let spinning = parse spinning_source in
  List.iter
    (fun prune ->
      check "max_runs" linked_list { Config.default with Config.prune; max_runs = 7 };
      check "step limit" spinning { Config.default with Config.prune })
    prunes

(* A walking campaign publishes the detector's census and fork counts,
   whatever the worker count. *)
let test_walk_counters () =
  let program = parse (Option.get (Registry.find "RBTree")).Registry.source in
  let names =
    [ "detect.points_total"; "detect.points_coalesced"; "detect.forks";
      "detect.injections_fired" ]
  in
  let counters f =
    Obs.with_enabled true (fun () ->
        Obs.reset ();
        f ();
        let values = List.map (fun n -> Obs.counter_value (Obs.counter n)) names in
        Obs.reset ();
        values)
  in
  List.iter
    (fun prune ->
      let config = { Config.default with Config.prune } in
      let expected = counters (fun () -> ignore (Detect.run ~config program)) in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s, jobs %d" (Config.prune_name prune) jobs)
            expected
            (counters (fun () -> ignore (Campaign.run ~config ~jobs program))))
        [ 1; 2 ])
    [ Config.Prune_off; Config.Prune_coalesce ]

(* [Detect.run] and [Campaign.run] at one and two workers publish the
   same schedule, census, fork and timeout counters, under off and
   coalesce, with and without a per-run timeout. *)
let test_counters_agree () =
  let program = parse (Option.get (Registry.find "LinkedList")).Registry.source in
  let names =
    [ "sched.schedules_explored"; "detect.points_total"; "detect.points_coalesced";
      "detect.forks"; "detect.runs_timed_out" ]
  in
  let counters f =
    Obs.with_enabled true (fun () ->
        Obs.reset ();
        f ();
        let values = List.map (fun n -> Obs.counter_value (Obs.counter n)) names in
        Obs.reset ();
        values)
  in
  List.iter
    (fun (prune, run_timeout_s) ->
      let config = { Config.default with Config.prune } in
      let what =
        Config.prune_name prune ^ if Option.is_some run_timeout_s then ", timeout" else ""
      in
      let expected =
        counters (fun () -> ignore (Detect.run ~config ?run_timeout_s program))
      in
      (* one schedule, and one fork per representative (per point, unless
         coalescing), none of them timed out, budget or not *)
      Alcotest.(check int) (what ^ ": one schedule") 1 (List.hd expected);
      let points = List.nth expected 1 and coalesced = List.nth expected 2 in
      let forks = List.nth expected 3 and timed_out = List.nth expected 4 in
      Alcotest.(check bool) (what ^ ": runs counted") true (forks > 0);
      Alcotest.(check (pair int int))
        (what ^ ": forks, runs timed out")
        (points - coalesced, 0)
        (forks, timed_out);
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s, jobs %d" what jobs)
            expected
            (counters (fun () ->
                 ignore (Campaign.run ~config ?run_timeout_s ~jobs program))))
        [ 1; 2 ])
    [ (Config.Prune_off, None); (Config.Prune_coalesce, None);
      (Config.Prune_off, Some 600.); (Config.Prune_coalesce, Some 600.) ]

(* Runs [f] with metrics on; also returns how many injected runs forked. *)
let with_forks f =
  Obs.with_enabled true (fun () ->
      Obs.reset ();
      let r = f () in
      let forks = Obs.counter_value (Obs.counter "detect.forks") in
      Obs.reset ();
      (r, forks))

(* A per-run timeout budgets each forked suffix: a budgeted campaign
   forks every injected run, as an unbudgeted one does. *)
let test_budgeted_forks () =
  let linked_list = parse (Option.get (Registry.find "LinkedList")).Registry.source in
  let (result, _), forks =
    with_forks (fun () -> Campaign.run ~run_timeout_s:600. ~jobs:2 linked_list)
  in
  Alcotest.(check int) "timeout: every injected run forked" result.Detect.injections forks;
  let (result, _), forks = with_forks (fun () -> Campaign.run ~jobs:2 linked_list) in
  Alcotest.(check int) "no timeout: every injected run forked" result.Detect.injections forks

(* One [RuntimeException] handler catches every exception of [init]
   and [poke] and spins until the budget runs out, so each entry's
   points form one blindness group.  A timed-out representative does
   not vouch for its members: each forks at its own point under the
   budget.  The spin makes no call and prints nothing, so where the
   deadline strikes changes no record; the budget leaves ample time to
   reach it. *)
let slow_group_source =
  {|
class Box {
  field v;
  method init() { this.v = 0; }
  method poke() throws IllegalStateException {
    this.v = this.v + 1;
    return this.v;
  }
}
function main() {
  for (var i = 0; i < 3; i = i + 1) {
    try {
      var b = new Box();
      b.poke();
    } catch (RuntimeException e) {
      var j = 0;
      while (j >= 0) { j = j + 1; }
    }
  }
  println("done");
}
|}

let test_timed_out_representative () =
  let program = parse slow_group_source in
  let config =
    { Config.default with
      Config.prune = Config.Prune_coalesce;
      runtime_exceptions = [ "NullPointerException"; "IllegalArgumentException" ] }
  in
  let counted f =
    Obs.with_enabled true (fun () ->
        Obs.reset ();
        let r = f () in
        let count name = Obs.counter_value (Obs.counter name) in
        let c = (count "detect.forks", count "detect.points_coalesced") in
        Obs.reset ();
        (r, c))
  in
  let run_timeout_s = 0.02 in
  let seq, (forks, coalesced) = counted (fun () -> Detect.run ~config ~run_timeout_s program) in
  let injected =
    List.filter (fun (r : Marks.run_record) -> r.Marks.injected <> None) seq.Detect.runs
  in
  Alcotest.(check bool) "groups have members" true (coalesced > 0);
  Alcotest.(check bool) "every injected run timed out" true
    (injected <> [] && List.for_all (fun (r : Marks.run_record) -> r.Marks.timed_out) injected);
  Alcotest.(check int) "members forked at their own points" seq.Detect.injections forks;
  let probe = List.nth seq.Detect.runs (List.length seq.Detect.runs - 1) in
  Alcotest.(check bool) "the probe completed: the suffix deadline was disarmed" false
    probe.Marks.timed_out;
  Alcotest.(check bool) "the probe is the no-injection run" true (probe.Marks.injected = None);
  let (par, _), (par_forks, _) =
    counted (fun () -> Campaign.run ~config ~run_timeout_s ~jobs:2 program)
  in
  Alcotest.(check bool) "campaign == detect, record for record" true
    (seq.Detect.runs = par.Detect.runs);
  Alcotest.(check int) "campaign forks the same runs" forks par_forks

(* Concurrent campaigns walk every schedule phase: at one and two
   workers they equal [Detect.run] — records, schedule switches and
   digests, transparency — and every injected run forks. *)
let test_concurrent_walk () =
  let config =
    { Config.default with Config.schedules = [ "coop"; "slice:1"; "slice:2"; "pct:2:7" ] }
  in
  List.iter
    (fun name ->
      let program = parse (Option.get (Registry.find name)).Registry.source in
      List.iter
        (fun flavor ->
          let expected = Detect.run ~config ~flavor program in
          List.iter
            (fun jobs ->
              let what = Printf.sprintf "%s %s jobs %d" name (Detect.flavor_name flavor) jobs in
              let (got, _), forks =
                with_forks (fun () -> Campaign.run ~config ~flavor ~jobs program)
              in
              Alcotest.(check string) (what ^ ": run log") (Run_log.save expected)
                (Run_log.save got);
              Alcotest.(check int) (what ^ ": every injected run forked")
                expected.Detect.injections forks)
            [ 1; 2 ])
        [ Detect.Source_weaving; Detect.Load_time_filters ])
    [ "StripedMap"; "BoundedBuffer"; "WorkQueue" ]

let suite =
  [ Alcotest.test_case "probe run last (8 workers)" `Quick test_probe_last;
    Alcotest.test_case "per-run timeout" `Quick test_run_timeout;
    Alcotest.test_case "timed-out runs survive the run log" `Quick
      test_timed_out_run_log_roundtrip;
    Alcotest.test_case "cooperative cancellation" `Quick test_cancel;
    Alcotest.test_case "torn journal tail tolerated with warning" `Quick
      test_journal_torn_tail_warning;
    Alcotest.test_case "resume from journal" `Quick test_resume;
    Alcotest.test_case "journal guards" `Quick test_journal_guards;
    Alcotest.test_case "journal with a malformed method id" `Quick
      test_journal_bad_method_id;
    Alcotest.test_case "journal output round-trip" `Quick test_journal_output_roundtrip;
    Alcotest.test_case "resume skips journaled thresholds" `Quick test_resume_skips_journaled;
    Alcotest.test_case "walking campaign resumes truncated journals" `Quick
      test_walk_resume;
    Alcotest.test_case "walking campaign cancels and resumes" `Quick
      test_walk_cancel_resume;
    Alcotest.test_case "walking campaign errors == detect's" `Quick test_walk_errors;
    Alcotest.test_case "walking campaign counters == detect's" `Quick test_walk_counters;
    Alcotest.test_case "schedule, census and fork counters == detect's" `Quick
      test_counters_agree;
    Alcotest.test_case "a budgeted campaign forks" `Quick test_budgeted_forks;
    Alcotest.test_case "a timed-out representative's members fork" `Quick
      test_timed_out_representative;
    Alcotest.test_case "concurrent campaigns walk == detect's" `Quick
      test_concurrent_walk ]
  @ walk_cases @ determinism_cases
