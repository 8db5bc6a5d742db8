(* Tests of the failatom daemon (lib/server/): protocol round trips,
   result fidelity against the in-process detector, the
   content-addressed cache, concurrency, admission failures, and the
   timeout/cancel paths.  Each test (or test group) starts its own
   in-process server on a fresh socket. *)

open Failatom_core
open Failatom_apps
module Server = Failatom_server.Server
module Client = Failatom_server.Client
module Protocol = Failatom_server.Protocol
module Json = Failatom_core.Json

let parse = Failatom_minilang.Minilang.parse

(* Unix sockets live in sun_path (~104 bytes), so build short names
   under the system temp dir rather than a nested dune sandbox path. *)
let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fa_test_%d_%d.sock" (Unix.getpid ()) !counter)

let with_server ?(config = fun c -> c) f =
  let socket_path = fresh_socket () in
  let server = Server.start (config (Server.default_config ~socket_path)) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Server.wait server;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () -> f socket_path)

let with_client socket_path f = Client.with_conn ~socket_path f

let completed = function
  | Client.Completed (result, cached) -> (result, cached)
  | Client.Job_failed msg -> Alcotest.failf "job failed: %s" msg
  | Client.Job_cancelled -> Alcotest.fail "job unexpectedly cancelled"
  | Client.Job_timed_out -> Alcotest.fail "job unexpectedly timed out"

(* ------------------------------------------------------------------ *)
(* (a) round trip: server result == in-process Detect.run              *)
(* ------------------------------------------------------------------ *)

(* The matrix runs every registry app in both flavors with statically
   inferred exception-free methods (fewer injection points), exactly as
   a client would request it; the run-log text must be bitwise equal to
   the sequential in-process detector's. *)
let check_round_trip socket_path (app : Registry.t) flavor =
  let request =
    { (Protocol.default_request Protocol.Detect (Protocol.App app.Registry.name)) with
      Protocol.flavor = Some flavor;
      infer = true }
  in
  let result, _cached =
    with_client socket_path (fun conn -> completed (Client.submit_wait conn request))
  in
  let config = { Config.default with Config.infer_exception_free = true } in
  let expected = Detect.run ~config ~flavor (parse app.Registry.source) in
  Alcotest.(check string)
    "identical run log" (Run_log.save expected) result.Protocol.r_log;
  Alcotest.(check int) "same injections" expected.Detect.injections
    result.Protocol.r_injections;
  Alcotest.(check bool) "same transparency" expected.Detect.transparent
    result.Protocol.r_transparent;
  let classification = Classify.classify expected in
  Alcotest.(check (list (pair string string)))
    "same non-atomic methods"
    (List.map
       (fun id ->
         ( Method_id.to_string id,
           Classify.verdict_name (Option.get (Classify.verdict classification id)) ))
       (Classify.non_atomic_methods classification))
    result.Protocol.r_non_atomic

let test_round_trip_matrix () =
  with_server (fun socket_path ->
      List.iter
        (fun (app : Registry.t) ->
          List.iter
            (check_round_trip socket_path app)
            [ Detect.Source_weaving; Detect.Load_time_filters ])
        Registry.catalog)

(* Campaign mode on the server must agree with detect mode (the runs
   are deterministic, so parallelism must not change the log). *)
let test_campaign_mode_matches_detect () =
  with_server
    ~config:(fun c -> { c with Server.jobs_per_job = 4 })
    (fun socket_path ->
      let request mode =
        { (Protocol.default_request mode (Protocol.App "LinkedList")) with
          Protocol.jobs = Some 4 }
      in
      with_client socket_path (fun conn ->
          let d, _ = completed (Client.submit_wait conn (request Protocol.Detect)) in
          let c, _ = completed (Client.submit_wait conn (request Protocol.Campaign)) in
          Alcotest.(check string) "same log" d.Protocol.r_log c.Protocol.r_log;
          match c.Protocol.r_summary with
          | Some s ->
            Alcotest.(check bool) "campaign ran parallel" true
              (s.Protocol.workers > 1)
          | None -> Alcotest.fail "campaign result carries no summary"))

(* Mask mode: wrap targets and corrected program on top of the same
   detection, equal to the in-process Mask.correct. *)
let test_mask_mode () =
  with_server (fun socket_path ->
      let app = Option.get (Registry.find "LinkedList") in
      let request =
        Protocol.default_request Protocol.Mask (Protocol.App app.Registry.name)
      in
      let result, _ =
        with_client socket_path (fun conn -> completed (Client.submit_wait conn request))
      in
      let flavor = Harness.flavor_of_suite app.Registry.suite in
      let outcome = Mask.correct ~flavor (parse app.Registry.source) in
      Alcotest.(check (list string))
        "same wrap targets"
        (List.map Method_id.to_string
           (Method_id.Set.elements outcome.Mask.wrapped))
        result.Protocol.r_wrapped;
      Alcotest.(check string)
        "same corrected program"
        (Failatom_minilang.Pretty.program_to_string outcome.Mask.corrected)
        (Option.value ~default:"" result.Protocol.r_corrected))

(* An inline program must behave exactly like the same source on disk. *)
let test_inline_program () =
  with_server (fun socket_path ->
      let app = Option.get (Registry.find "Dynarray") in
      let by_name =
        Protocol.default_request Protocol.Detect (Protocol.App app.Registry.name)
      in
      let inline =
        { (Protocol.default_request Protocol.Detect
             (Protocol.Inline app.Registry.source)) with
          Protocol.flavor = Some (Harness.flavor_of_suite app.Registry.suite) }
      in
      with_client socket_path (fun conn ->
          let a, _ = completed (Client.submit_wait conn by_name) in
          let b, _ = completed (Client.submit_wait conn inline) in
          Alcotest.(check string) "same log" a.Protocol.r_log b.Protocol.r_log))

(* ------------------------------------------------------------------ *)
(* (b) cache: resubmission is answered without re-running              *)
(* ------------------------------------------------------------------ *)

let test_cache_hit () =
  with_server (fun socket_path ->
      let request =
        Protocol.default_request Protocol.Detect (Protocol.App "CircularList")
      in
      with_client socket_path (fun conn ->
          let first, cached1 = completed (Client.submit_wait conn request) in
          Alcotest.(check bool) "first run not cached" false cached1;
          let id2, cached2 = Client.submit conn request in
          Alcotest.(check bool) "resubmission served from cache" true cached2;
          (* the cached job is already terminal: status shows the result *)
          let s = Client.status conn id2 in
          Alcotest.(check string) "cached job is done" "done" s.Client.state;
          let second = Option.get s.Client.result in
          Alcotest.(check string)
            "bitwise identical log" first.Protocol.r_log second.Protocol.r_log;
          (* watch on a finished job still yields the terminal event *)
          let third, cached3 = completed (Client.watch conn id2) in
          Alcotest.(check bool) "watch reports cached" true cached3;
          Alcotest.(check string)
            "watch returns the same result" first.Protocol.r_log third.Protocol.r_log))

(* Different configurations must NOT share a cache entry. *)
let test_cache_keyed_by_config () =
  with_server (fun socket_path ->
      let base = Protocol.default_request Protocol.Detect (Protocol.App "LLMap") in
      with_client socket_path (fun conn ->
          let _, c1 = completed (Client.submit_wait conn base) in
          Alcotest.(check bool) "cold" false c1;
          let _, c1' = Client.submit conn base in
          Alcotest.(check bool) "warm" true c1';
          let infer = { base with Protocol.infer = true } in
          let id, c2 = Client.submit conn infer in
          Alcotest.(check bool) "different config misses the cache" false c2;
          ignore (completed (Client.watch conn id))))

(* ------------------------------------------------------------------ *)
(* (c) concurrency: parallel clients all get correct answers           *)
(* ------------------------------------------------------------------ *)

let test_concurrent_clients () =
  with_server
    ~config:(fun c -> { c with Server.workers = 4 })
    (fun socket_path ->
      let apps = [ "LinkedList"; "Dynarray"; "LLMap"; "CircularList" ] in
      let expected =
        List.map
          (fun name ->
            let app = Option.get (Registry.find name) in
            let flavor = Harness.flavor_of_suite app.Registry.suite in
            (name, Run_log.save (Detect.run ~flavor (parse app.Registry.source))))
          apps
      in
      let results = Array.make 8 None in
      let threads =
        List.init 8 (fun i ->
            Thread.create
              (fun () ->
                let name = List.nth apps (i mod List.length apps) in
                let request =
                  Protocol.default_request Protocol.Detect (Protocol.App name)
                in
                let result, _ =
                  with_client socket_path (fun conn ->
                      completed (Client.submit_wait conn request))
                in
                results.(i) <- Some (name, result.Protocol.r_log))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i slot ->
          match slot with
          | None -> Alcotest.failf "client %d got no result" i
          | Some (name, log) ->
            Alcotest.(check string)
              (Printf.sprintf "client %d (%s) correct" i name)
              (List.assoc name expected) log)
        results)

(* ------------------------------------------------------------------ *)
(* (d) admission and protocol failures                                 *)
(* ------------------------------------------------------------------ *)

let raw_request socket_path line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let greeting = input_line ic in
  output_string oc line;
  output_char oc '\n';
  flush oc;
  let reply = input_line ic in
  close_out_noerr oc;
  close_in_noerr ic;
  (greeting, reply)

let check_error_reply name reply =
  let j = Json.of_string reply in
  Alcotest.(check (option bool)) (name ^ ": ok=false") (Some false)
    (Json.bool_member "ok" j);
  Alcotest.(check bool)
    (name ^ ": carries an error message")
    true
    (Json.str_member "error" j <> None)

let test_malformed_requests () =
  with_server (fun socket_path ->
      let greeting, reply = raw_request socket_path "this is not json" in
      Alcotest.(check bool) "greeting names the protocol" true
        (Json.str_member "rpc" (Json.of_string greeting) = Some Protocol.version);
      check_error_reply "garbage line" reply;
      check_error_reply "unknown command"
        (snd (raw_request socket_path {|{"cmd":"frobnicate"}|}));
      check_error_reply "submit without rpc version"
        (snd (raw_request socket_path {|{"cmd":"submit","mode":"detect"}|}));
      check_error_reply "status of unknown job"
        (snd (raw_request socket_path {|{"cmd":"status","job":"j999"}|}));
      (* server-side validation of the program itself *)
      with_client socket_path (fun conn ->
          let unknown_app =
            Protocol.default_request Protocol.Detect (Protocol.App "noSuchApp")
          in
          (try
             ignore (Client.submit conn unknown_app);
             Alcotest.fail "unknown app was accepted"
           with Client.Error _ -> ());
          let bad_source =
            Protocol.default_request Protocol.Detect
              (Protocol.Inline "class { oops")
          in
          try
            ignore (Client.submit conn bad_source);
            Alcotest.fail "unparsable program was accepted"
          with Client.Error _ -> ()))

(* A rejected submission must not poison the connection. *)
let test_connection_survives_errors () =
  with_server (fun socket_path ->
      with_client socket_path (fun conn ->
          (try
             ignore
               (Client.submit conn
                  (Protocol.default_request Protocol.Detect (Protocol.App "nope")))
           with Client.Error _ -> ());
          let result, _ =
            completed
              (Client.submit_wait conn
                 (Protocol.default_request Protocol.Detect
                    (Protocol.App "Dynarray")))
          in
          Alcotest.(check bool) "subsequent submit works" true
            (result.Protocol.r_injections > 0)))

(* The retired wire field "snapshot" is still accepted from older
   clients: "eager", "cow" and no field all run the one copy-on-write
   path under one cache key, and any other value is still an error. *)
let test_snapshot_field_compat () =
  with_server (fun socket_path ->
      let base = Protocol.default_request Protocol.Detect (Protocol.App "HashedSet") in
      let fields =
        match Protocol.request_to_json (Protocol.Submit base) with
        | Json.Obj fields -> fields
        | _ -> Alcotest.fail "a submit renders as an object"
      in
      Alcotest.(check bool) "the field is no longer written" false
        (List.mem_assoc "snapshot" fields);
      let submit extra =
        let _, reply =
          raw_request socket_path (Json.to_string (Json.Obj (fields @ extra)))
        in
        Json.of_string reply
      in
      let with_snapshot v = [ ("snapshot", Json.Str v) ] in
      let cached reply = Json.bool_member "cached" reply in
      let first = submit (with_snapshot "eager") in
      Alcotest.(check (option bool)) "eager: cold" (Some false) (cached first);
      with_client socket_path (fun conn ->
          ignore (completed (Client.watch conn (Option.get (Json.str_member "job" first)))));
      Alcotest.(check (option bool)) "cow: warm" (Some true)
        (cached (submit (with_snapshot "cow")));
      Alcotest.(check (option bool)) "no field: warm" (Some true) (cached (submit []));
      check_error_reply "unknown snapshot mode"
        (Json.to_string (submit (with_snapshot "bogus"))))

(* The retired wire field "rollback" is still accepted from older
   clients: a produce job with no field, "checkpoint" or "cow" runs the
   one copy-on-write checkpoint and reports the same scorecard core,
   and any other value is still an "unknown rollback engine" error. *)
let test_rollback_field_compat () =
  let module Plan = Failatom_prod.Plan in
  let module Scorecard = Failatom_prod.Scorecard in
  let program = parse (Option.get (Registry.find "LinkedList")).Registry.source in
  let flavor = Detect.Load_time_filters in
  let detection = Detect.run ~flavor program in
  let plan =
    Plan.build ~config:Config.default ~flavor ~program ~detection
      ~classification:(Classify.classify detection)
  in
  let base =
    { (Protocol.default_request Protocol.Produce (Protocol.App "LinkedList")) with
      Protocol.plan = Some (Plan.to_json plan);
      perturb_rate = Some 1000;
      perturb_seed = Some 42;
      times = Some 2 }
  in
  let fields =
    match Protocol.request_to_json (Protocol.Submit base) with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "a submit renders as an object"
  in
  Alcotest.(check bool) "the field is no longer written" false
    (List.mem_assoc "rollback" fields);
  with_server (fun socket_path ->
      let submit extra =
        Json.of_string
          (snd (raw_request socket_path (Json.to_string (Json.Obj (fields @ extra)))))
      in
      let core extra =
        let job = Option.get (Json.str_member "job" (submit extra)) in
        let result, _ = with_client socket_path (fun conn -> completed (Client.watch conn job)) in
        match Scorecard.of_string (Option.get result.Protocol.r_resilience) with
        | Ok sc -> sc.Scorecard.rollback :: Rollback_golden.core_rows sc
        | Error msg -> Alcotest.failf "scorecard rejected: %s" msg
      in
      let with_rollback v = [ ("rollback", Json.Str v) ] in
      let absent = core [] in
      Alcotest.(check string) "engine recorded" "cow" (List.hd absent);
      Alcotest.(check (list string)) "checkpoint: same core" absent
        (core (with_rollback "checkpoint"));
      Alcotest.(check (list string)) "cow: same core" absent (core (with_rollback "cow"));
      let bogus = submit (with_rollback "bogus") in
      check_error_reply "unknown rollback engine" (Json.to_string bogus);
      Alcotest.(check (option string)) "error names the engine"
        (Some {|unknown rollback engine "bogus"|})
        (Json.str_member "error" bogus))

(* A warm hit's done frame is the cache entry's one shared string: 300
   warm RBTree hits must not grow the daemon's live heap by a copy of
   the ~200 KB result each, and every watcher still reads the same
   bytes. *)
let test_warm_hits_share_done_frame () =
  with_server (fun socket_path ->
      let request = Protocol.default_request Protocol.Detect (Protocol.App "RBTree") in
      with_client socket_path (fun conn ->
          ignore (completed (Client.submit_wait conn request)));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () ->
          close_out_noerr oc;
          close_in_noerr ic)
        (fun () ->
          ignore (input_line ic);
          let exchange line =
            output_string oc line;
            output_char oc '\n';
            flush oc;
            input_line ic
          in
          let submit_line = Json.to_string (Protocol.request_to_json (Protocol.Submit request)) in
          let warm_frame () =
            let reply = Json.of_string (exchange submit_line) in
            Alcotest.(check (option bool)) "warm" (Some true) (Json.bool_member "cached" reply);
            let job = Option.get (Json.str_member "job" reply) in
            exchange (Json.to_string (Protocol.request_to_json (Protocol.Watch job)))
          in
          let reference = warm_frame () in
          Alcotest.(check bool) "a large result" true (String.length reference > 100_000);
          for _ = 1 to 20 do ignore (warm_frame ()) done;
          let live () =
            Gc.full_major ();
            (Gc.stat ()).Gc.live_words
          in
          let hits = 300 in
          let before = live () in
          let identical = ref true in
          for _ = 1 to hits do
            if not (String.equal (warm_frame ()) reference) then identical := false
          done;
          let growth = (live () - before) * (Sys.word_size / 8) / hits in
          Alcotest.(check bool) "frames byte-identical" true !identical;
          if growth >= 16 * 1024 then
            Alcotest.failf "live heap grew %d bytes per warm job (bound 16 KB)" growth))

(* ------------------------------------------------------------------ *)
(* (e) timeouts and cancellation                                       *)
(* ------------------------------------------------------------------ *)

(* Each call of Worker.spin costs ~160k VM steps, and main makes 40 of
   them: every detection run takes a few milliseconds, the whole job a
   second or two — long enough to cancel or time out reliably, short
   enough not to stall the suite if the test loses the race. *)
let slow_source =
  {|
class Worker {
  field acc;
  method init() { this.acc = 0; }
  method spin(n) throws IllegalStateException {
    var i = 0;
    while (i < n) { i = i + 1; this.acc = this.acc + 1; }
    return this.acc;
  }
}
function main() {
  var w = new Worker();
  for (var r = 0; r < 40; r = r + 1) {
    try { w.spin(4000); } catch (IllegalStateException e) { println("x"); }
  }
  println("done " + w.acc);
}
|}

let test_job_timeout () =
  with_server
    ~config:(fun c -> { c with Server.job_timeout_s = Some 0.05 })
    (fun socket_path ->
      with_client socket_path (fun conn ->
          match
            Client.submit_wait conn
              (Protocol.default_request Protocol.Detect (Protocol.Inline slow_source))
          with
          | Client.Job_timed_out -> ()
          | Client.Completed _ -> Alcotest.fail "job beat a 50ms deadline"
          | Client.Job_failed msg -> Alcotest.failf "job failed instead: %s" msg
          | Client.Job_cancelled -> Alcotest.fail "job cancelled instead"))

let test_cancel_running_job () =
  with_server (fun socket_path ->
      with_client socket_path (fun conn ->
          let id, _ =
            Client.submit conn
              (Protocol.default_request Protocol.Detect (Protocol.Inline slow_source))
          in
          Client.cancel conn id;
          (match Client.watch conn id with
           | Client.Job_cancelled -> ()
           | Client.Completed _ ->
             Alcotest.fail "job completed before the cancel landed"
           | Client.Job_failed msg -> Alcotest.failf "job failed instead: %s" msg
           | Client.Job_timed_out -> Alcotest.fail "job timed out instead");
          let s = Client.status conn id in
          Alcotest.(check string) "status agrees" "cancelled" s.Client.state))

(* Per-run timeouts surface in the result's log as timed-out records
   (the detection still completes: a timed-out run never ends the
   loop).  [slow_catch_source]'s handler takes ~2M VM steps, so with a
   5ms budget every injected run times out while baseline and probe
   stay fast. *)
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

let test_run_timeout_in_result () =
  with_server (fun socket_path ->
      let request =
        { (Protocol.default_request Protocol.Detect
             (Protocol.Inline slow_catch_source)) with
          Protocol.run_timeout_s = Some 0.005 }
      in
      let result, _ =
        with_client socket_path (fun conn -> completed (Client.submit_wait conn request))
      in
      let log = Run_log.load result.Protocol.r_log in
      let timed_out =
        List.filter (fun (r : Marks.run_record) -> r.Marks.timed_out) log.Run_log.runs
      in
      Alcotest.(check bool) "some runs timed out" true (timed_out <> []);
      (* the probe run (no injection) terminated normally *)
      let probe = List.nth log.Run_log.runs (List.length log.Run_log.runs - 1) in
      Alcotest.(check bool) "probe not timed out" false probe.Marks.timed_out)

(* ------------------------------------------------------------------ *)
(* (f) drain: shutdown cancels queued jobs, finishes running ones      *)
(* ------------------------------------------------------------------ *)

let test_shutdown_drains () =
  let socket_path = fresh_socket () in
  let server =
    Server.start
      { (Server.default_config ~socket_path) with Server.workers = 1 }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Server.wait server;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () ->
      with_client socket_path (fun conn ->
          (* one job occupies the single worker, a second waits queued *)
          let running, _ =
            Client.submit conn
              (Protocol.default_request Protocol.Detect (Protocol.Inline slow_source))
          in
          let queued, _ =
            Client.submit conn
              (Protocol.default_request Protocol.Detect (Protocol.App "RegExp"))
          in
          Client.shutdown conn;
          (* queued job is cancelled by the drain ... *)
          (match Client.watch conn queued with
           | Client.Job_cancelled -> ()
           | Client.Completed _ ->
             (* possible if it slipped onto the worker first; accept *)
             ()
           | Client.Job_failed msg -> Alcotest.failf "queued job failed: %s" msg
           | Client.Job_timed_out -> Alcotest.fail "queued job timed out");
          (* ... and new submissions are refused while draining *)
          (try
             ignore
               (Client.submit conn
                  (Protocol.default_request Protocol.Detect
                     (Protocol.App "Dynarray")));
             Alcotest.fail "submit accepted during drain"
           with Client.Error _ -> ());
          ignore running))

(* ------------------------------------------------------------------ *)
(* (g) stats: the daemon exposes a parseable metrics snapshot          *)
(* ------------------------------------------------------------------ *)

let test_stats_snapshot () =
  with_server (fun socket_path ->
      with_client socket_path (fun conn ->
          let _ =
            completed
              (Client.submit_wait conn
                 (Protocol.default_request Protocol.Detect (Protocol.App "Dynarray")))
          in
          let snap = Failatom_obs.Obs.parse_json (Client.stats conn) in
          let counter name =
            List.assoc_opt name snap.Failatom_obs.Obs.s_counters
          in
          Alcotest.(check bool) "jobs_accepted counted" true
            (match counter "server.jobs_accepted" with
             | Some n -> n >= 1
             | None -> false);
          Alcotest.(check bool) "jobs_completed counted" true
            (match counter "server.jobs_completed" with
             | Some n -> n >= 1
             | None -> false)))

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "round trip matrix (all apps, both flavors)" `Slow
      test_round_trip_matrix;
    Alcotest.test_case "campaign mode matches detect mode" `Slow
      test_campaign_mode_matches_detect;
    Alcotest.test_case "mask mode returns wrap targets and P_C" `Quick
      test_mask_mode;
    Alcotest.test_case "inline program == registry app" `Quick test_inline_program;
    Alcotest.test_case "resubmission is a cache hit" `Quick test_cache_hit;
    Alcotest.test_case "cache is keyed by configuration" `Quick
      test_cache_keyed_by_config;
    Alcotest.test_case "retired snapshot field shares one cache key" `Quick
      test_snapshot_field_compat;
    Alcotest.test_case "retired rollback field decodes" `Quick
      test_rollback_field_compat;
    Alcotest.test_case "warm hits share one done frame" `Quick
      test_warm_hits_share_done_frame;
    Alcotest.test_case "concurrent clients" `Slow test_concurrent_clients;
    Alcotest.test_case "malformed requests are rejected" `Quick
      test_malformed_requests;
    Alcotest.test_case "connection survives a rejected submit" `Quick
      test_connection_survives_errors;
    Alcotest.test_case "job timeout" `Quick test_job_timeout;
    Alcotest.test_case "cancel a running job" `Quick test_cancel_running_job;
    Alcotest.test_case "per-run timeout recorded in result" `Quick
      test_run_timeout_in_result;
    Alcotest.test_case "shutdown drains gracefully" `Quick test_shutdown_drains;
    Alcotest.test_case "stats snapshot is parseable" `Quick test_stats_snapshot ]
