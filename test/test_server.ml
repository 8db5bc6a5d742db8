(* Tests of the failatom daemon (lib/server/): protocol round trips,
   result fidelity against the in-process detector, the
   content-addressed cache and its disk tier (store round trip, crash
   hygiene, LRU eviction, warm restarts, failure paths), the bounded
   job table, concurrency, admission failures, the timeout/cancel
   paths, and the client's connect backoff and resubmission after a
   dropped connection (against a scripted daemon, and — when the
   failatom binary is available via FAILATOM_EXE — against a real
   [serve --store] killed with SIGKILL mid-job).  Each test (or test
   group) starts its own in-process server on a fresh socket. *)

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

(* The matrix runs every registry app in both flavors under
   [--prune drop] (injections a method provably cannot raise are
   skipped), exactly as a client would request it; the run-log text must be bitwise equal to
   the sequential in-process detector's. *)
let check_round_trip socket_path (app : Registry.t) flavor =
  let request =
    { (Protocol.default_request Protocol.Detect (Protocol.App app.Registry.name)) with
      Protocol.flavor = Some flavor;
      prune = Config.Prune_drop;
      log = true }
  in
  let result, _cached =
    with_client socket_path (fun conn -> completed (Client.submit_wait conn request))
  in
  let config = { Config.default with Config.prune = Config.Prune_drop } in
  let expected = Detect.run ~config ~flavor (parse app.Registry.source) in
  Alcotest.(check bool) "the compared log is not empty" true
    (result.Protocol.r_log <> "");
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
          Protocol.jobs = Some 4;
          log = true }
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
        { (Protocol.default_request Protocol.Detect (Protocol.App app.Registry.name)) with
          Protocol.log = true }
      in
      let inline =
        { (Protocol.default_request Protocol.Detect
             (Protocol.Inline app.Registry.source)) with
          Protocol.flavor = Some (Harness.flavor_of_suite app.Registry.suite);
          log = true }
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
      let cache_hit request =
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
            Alcotest.(check bool) "the warm result is the cold one" true (first = third))
      in
      List.iter cache_hit
        [ { (Protocol.default_request Protocol.Detect (Protocol.App "CircularList")) with
            Protocol.log = true };
          { (Protocol.default_request Protocol.Detect
               (Protocol.App (List.hd Registry.catalog).Registry.name)) with
            Protocol.prune = Config.Prune_drop;
            log = true } ])

(* A detect job is a one-worker campaign, which walks: its summary
   counts (executed, reused, discarded, synthesized) and its log are the
   same with and without a per-run timeout on its forked runs. *)
let test_walk_summary_matches_fresh () =
  with_server (fun socket_path ->
      with_client socket_path (fun conn ->
          List.iter
            (fun prune ->
              let request run_timeout_s =
                { (Protocol.default_request Protocol.Detect (Protocol.App "LinkedList")) with
                  Protocol.prune;
                  run_timeout_s;
                  log = true }
              in
              let walked, _ = completed (Client.submit_wait conn (request None)) in
              let fresh, _ = completed (Client.submit_wait conn (request (Some 600.))) in
              let counts (r : Protocol.job_result) =
                match r.Protocol.r_summary with
                | Some s ->
                  [ s.Protocol.workers; s.Protocol.executed; s.Protocol.reused;
                    s.Protocol.discarded; s.Protocol.synthesized ]
                | None -> Alcotest.fail "detect result carries no summary"
              in
              let what = Config.prune_name prune in
              Alcotest.(check (list int)) (what ^ ": summary counts") (counts fresh)
                (counts walked);
              Alcotest.(check string) (what ^ ": run log") fresh.Protocol.r_log
                walked.Protocol.r_log)
            [ Config.Prune_off; Config.Prune_coalesce ]))

(* Different configurations must NOT share a cache entry. *)
let test_cache_keyed_by_config () =
  with_server (fun socket_path ->
      let base = Protocol.default_request Protocol.Detect (Protocol.App "LLMap") in
      with_client socket_path (fun conn ->
          let _, c1 = completed (Client.submit_wait conn base) in
          Alcotest.(check bool) "cold" false c1;
          let _, c1' = Client.submit conn base in
          Alcotest.(check bool) "warm" true c1';
          let drop = { base with Protocol.prune = Config.Prune_drop } in
          let id, c2 = Client.submit conn drop in
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
                  { (Protocol.default_request Protocol.Detect (Protocol.App name)) with
                    Protocol.log = true }
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

(* The retired wire member "infer" (exception-freedom inference,
   superseded by "prune":"drop") is ignored like any unknown member: a
   submit line carrying it decodes to the same request as the line
   without it, and the server keys both under one cache entry. *)
let test_infer_field_compat () =
  let base = Protocol.default_request Protocol.Detect (Protocol.App "HashedSet") in
  let fields =
    match Protocol.request_to_json (Protocol.Submit base) with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "a submit renders as an object"
  in
  Alcotest.(check bool) "the member is no longer written" false
    (List.mem_assoc "infer" fields);
  let with_infer = fields @ [ ("infer", Json.Bool true) ] in
  let decode fields =
    match Protocol.request_of_json (Json.Obj fields) with
    | Ok (Protocol.Submit r) -> r
    | Ok _ -> Alcotest.fail "a submit line decodes as a submit"
    | Error msg -> Alcotest.failf "submit line rejected: %s" msg
  in
  Alcotest.(check bool) "decodes as the line without it" true
    (decode with_infer = decode fields);
  with_server (fun socket_path ->
      let submit fields =
        Json.of_string (snd (raw_request socket_path (Json.to_string (Json.Obj fields))))
      in
      let cached reply = Json.bool_member "cached" reply in
      let first = submit with_infer in
      Alcotest.(check (option bool)) "infer: cold" (Some false) (cached first);
      with_client socket_path (fun conn ->
          ignore (completed (Client.watch conn (Option.get (Json.str_member "job" first)))));
      Alcotest.(check (option bool)) "no member: same cache key" (Some true)
        (cached (submit fields)))

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
      let request =
        { (Protocol.default_request Protocol.Detect (Protocol.App "RBTree")) with
          Protocol.log = true }
      in
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
          Protocol.run_timeout_s = Some 0.005;
          log = true }
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
(* (h) the [log] request field and the [log] op                        *)
(* ------------------------------------------------------------------ *)

(* One raw connection past its greeting: [send] writes a line, [read]
   reads the next one. *)
let with_raw socket_path f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr (Unix.dup fd) in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () ->
      ignore (input_line ic);
      let send line =
        output_string oc line;
        output_char oc '\n';
        flush oc
      in
      f ~send ~read:(fun () -> input_line ic))

let submit_fields req =
  match Protocol.request_to_json (Protocol.Submit req) with
  | Json.Obj fields -> fields
  | _ -> Alcotest.fail "a submit renders as an object"

let request_line req = Json.to_string (Protocol.request_to_json req)

(* Watches [job] and returns its done frame, verbatim. *)
let watch_done ~send ~read job =
  send (request_line (Protocol.Watch job));
  let rec loop () =
    let line = read () in
    match Json.str_member "event" (Json.of_string line) with
    | Some "done" -> line
    | Some ("state" | "tick" | "warning") -> loop ()
    | _ -> Alcotest.failf "job %s ended without a result: %s" job line
  in
  loop ()

let frame_result frame =
  match Protocol.event_of_json (Json.of_string frame) with
  | Ok (Protocol.Ev_done { result; _ }) -> result
  | _ -> Alcotest.failf "not a done frame: %s" frame

(* What the daemon sent before the [log] field existed. *)
let full_done_frame ~cached r =
  Json.to_string
    (Json.Obj
       [ ("ok", Json.Bool true);
         ("event", Json.Str "done");
         ("cached", Json.Bool cached);
         ("result", Protocol.result_to_json r) ])

let full_status_reply ~job ~cached r =
  Json.to_string
    (Json.Obj
       [ ("ok", Json.Bool true);
         ("job", Json.Str job);
         ("state", Json.Str "done");
         ("cached", Json.Bool cached);
         ("result", Protocol.result_to_json r) ])

let one_shot_log name =
  let app = Option.get (Registry.find name) in
  Run_log.save
    (Detect.run ~flavor:(Harness.flavor_of_suite app.Registry.suite)
       (parse app.Registry.source))

(* An older client sends no [log] field: its done frames and status
   replies, cold and warm, are the full rendering, run log included. *)
let test_absent_log_field () =
  with_server (fun socket_path ->
      let expected = one_shot_log "LinkedList" in
      let line =
        Json.to_string
          (Json.Obj
             (List.remove_assoc "log"
                (submit_fields
                   (Protocol.default_request Protocol.Detect (Protocol.App "LinkedList")))))
      in
      with_raw socket_path (fun ~send ~read ->
          List.iter
            (fun cached ->
              send line;
              let reply = Json.of_string (read ()) in
              Alcotest.(check (option bool)) "cached" (Some cached)
                (Json.bool_member "cached" reply);
              let job = Option.get (Json.str_member "job" reply) in
              let frame = watch_done ~send ~read job in
              let result = frame_result frame in
              Alcotest.(check string) "the frame carries the run log" expected
                result.Protocol.r_log;
              Alcotest.(check string) "done frame: the full rendering"
                (full_done_frame ~cached result) frame;
              send (request_line (Protocol.Status job));
              Alcotest.(check string) "status reply: the full rendering"
                (full_status_reply ~job ~cached result) (read ()))
            [ false; true ]))

let result_counter socket_path name =
  let snap =
    Failatom_obs.Obs.parse_json (with_client socket_path Client.stats)
  in
  Option.value ~default:0 (List.assoc_opt name snap.Failatom_obs.Obs.s_counters)

(* [log:false] omits the log member and nothing else, and shares the
   cache entry of a [log:true] submission of the same program. *)
let test_logless_frame () =
  with_server (fun socket_path ->
      let req = Protocol.default_request Protocol.Detect (Protocol.App "Dynarray") in
      let counters () =
        ( result_counter socket_path "server.cache_result_misses",
          result_counter socket_path "server.cache_result_hits" )
      in
      let misses0, hits0 = counters () in
      with_raw socket_path (fun ~send ~read ->
          let run log =
            send (request_line (Protocol.Submit { req with Protocol.log }));
            let reply = Json.of_string (read ()) in
            let job = Option.get (Json.str_member "job" reply) in
            (job, Json.bool_member "cached" reply, watch_done ~send ~read job)
          in
          let _, cold, full_frame = run true in
          let job, warm, brief_frame = run false in
          Alcotest.(check (option bool)) "log:true computes" (Some false) cold;
          Alcotest.(check (option bool)) "log:false hits its entry" (Some true) warm;
          let misses1, hits1 = counters () in
          Alcotest.(check (pair int int)) "one miss, then one hit" (1, 1)
            (misses1 - misses0, hits1 - hits0);
          let has_log frame =
            Json.member "log" (Option.get (Json.member "result" (Json.of_string frame)))
            <> None
          in
          Alcotest.(check bool) "full frame has the log key" true (has_log full_frame);
          Alcotest.(check bool) "log-less frame has no log key" false (has_log brief_frame);
          Alcotest.(check bool) "log-less frame under 4 KB" true
            (String.length brief_frame < 4096);
          let full = frame_result full_frame in
          Alcotest.(check bool) "the full log is not empty" true (full.Protocol.r_log <> "");
          Alcotest.(check bool) "same result but for r_log" true
            (frame_result brief_frame = { full with Protocol.r_log = "" });
          send (request_line (Protocol.Status job));
          Alcotest.(check bool) "log-less status reply has no log key" false
            (Json.member "log"
               (Option.get (Json.member "result" (Json.of_string (read ()))))
             <> None)))

(* The [log] op returns a finished job's run log, whatever its request
   asked of the done frame; unknown and unfinished jobs get errors. *)
let test_log_op () =
  with_server (fun socket_path ->
      let expected = one_shot_log "LinkedList" in
      let req = Protocol.default_request Protocol.Detect (Protocol.App "LinkedList") in
      with_client socket_path (fun conn ->
          let cold, c1 = Client.submit conn req in
          let result, _ = completed (Client.watch conn cold) in
          Alcotest.(check bool) "cold" false c1;
          Alcotest.(check string) "no log in the done frame" "" result.Protocol.r_log;
          Alcotest.(check string) "cold job: the one-shot log" expected
            (Client.log conn cold);
          let warm, c2 = Client.submit conn req in
          Alcotest.(check bool) "warm" true c2;
          Alcotest.(check string) "warm job: the one-shot log" expected
            (Client.log conn warm);
          let refused what id =
            match Client.log conn id with
            | _ -> Alcotest.failf "%s: a log was returned" what
            | exception Client.Error _ -> ()
          in
          refused "unknown job" "j999";
          let slow, _ =
            Client.submit conn
              (Protocol.default_request Protocol.Detect (Protocol.Inline slow_source))
          in
          refused "unfinished job" slow;
          Client.cancel conn slow;
          ignore (Client.watch conn slow));
      check_error_reply "log of an unknown job"
        (snd (raw_request socket_path {|{"cmd":"log","job":"j999"}|})))

(* ------------------------------------------------------------------ *)
(* Bounded job table                                                   *)
(* ------------------------------------------------------------------ *)

(* Only the newest [Server.max_finished_jobs] finished jobs are kept: a
   warm resubmission is a job born finished, so [max_finished_jobs + 2]
   of them after one cold job evict the cold job and the first two warm
   ones, and every op names an evicted id an unknown job. *)
let test_finished_jobs_bounded () =
  with_server (fun socket_path ->
      let request =
        Protocol.default_request Protocol.Detect (Protocol.App "CircularList")
      in
      let cold, warm =
        with_client socket_path (fun conn ->
            let cold, _ = Client.submit conn request in
            ignore (completed (Client.watch conn cold));
            ( cold,
              List.init (Server.max_finished_jobs + 2) (fun _ ->
                  let id, cached = Client.submit conn request in
                  if not cached then Alcotest.fail "resubmission not cached";
                  id) ))
      in
      List.iter
        (fun id ->
          List.iter
            (fun cmd ->
              let _, reply =
                raw_request socket_path
                  (Printf.sprintf {|{"cmd":"%s","job":"%s"}|} cmd id)
              in
              check_error_reply (cmd ^ " of evicted " ^ id) reply;
              Alcotest.(check (option string))
                (cmd ^ " of evicted " ^ id)
                (Some ("unknown job " ^ id))
                (Json.str_member "error" (Json.of_string reply)))
            [ "status"; "watch"; "cancel"; "log" ])
        (cold :: List.filteri (fun i _ -> i < 2) warm);
      with_client socket_path (fun conn ->
          Alcotest.(check string) "the oldest kept job answers" "done"
            (Client.status conn (List.nth warm 2)).Client.state;
          let last = List.nth warm (Server.max_finished_jobs + 1) in
          Alcotest.(check string) "the last job answers done" "done"
            (Client.status conn last).Client.state;
          let _, cached = completed (Client.watch conn last) in
          Alcotest.(check bool) "its frame: a cached done" true cached))

(* ------------------------------------------------------------------ *)
(* The disk tier: the store, and the cache over it                     *)
(* ------------------------------------------------------------------ *)

module Cache = Failatom_server.Cache
module Store = Failatom_server.Store

let rm_rf dir =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> go (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then go dir

let with_store_dir f =
  let dir = Filename.remove_extension (fresh_socket ()) ^ ".store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let store_cache dir =
  Cache.create ~store:(Store.open_ ~dir ~max_bytes:(64 * 1024 * 1024)) ()

let sample_result =
  { Protocol.r_mode = Protocol.Detect;
    r_flavor = "source";
    r_injections = 3;
    r_transparent = true;
    r_non_atomic = [ ("A.m", "pure") ];
    r_counts = { Protocol.atomic = 1; conditional = 0; pure = 1 };
    r_log = "a run log\n";
    r_wrapped = [];
    r_corrected = None;
    r_summary = None;
    r_resilience = None }

let test_store_round_trip () =
  with_store_dir @@ fun dir ->
  let store = Store.open_ ~dir ~max_bytes:(1024 * 1024) in
  Alcotest.(check (option string))
    "miss before store" None
    (Store.find store ~ns:"results" ~key:"k1");
  Store.store store ~ns:"results" ~key:"k1" "payload-one";
  Store.store store ~ns:"images" ~key:"k1" "payload-two";
  Alcotest.(check (option string))
    "hit" (Some "payload-one")
    (Store.find store ~ns:"results" ~key:"k1");
  Alcotest.(check (option string))
    "namespaces are disjoint" (Some "payload-two")
    (Store.find store ~ns:"images" ~key:"k1");
  (* a second open (a restart) sees the same data *)
  let store' = Store.open_ ~dir ~max_bytes:(1024 * 1024) in
  Alcotest.(check (option string))
    "survives reopen" (Some "payload-one")
    (Store.find store' ~ns:"results" ~key:"k1");
  (* hostile keys neither crash nor escape the directory *)
  List.iter
    (fun key ->
      Store.store store ~ns:"results" ~key "x";
      Alcotest.(check (option string))
        "hostile key rejected" None
        (Store.find store ~ns:"results" ~key))
    [ "../escape"; "a/b"; ""; "."; ".." ];
  (* tmp droppings from a crashed writer are swept at open *)
  let dropping = Filename.concat (Filename.concat dir "results") "k9.tmp.1.0" in
  write_file dropping "junk";
  ignore (Store.open_ ~dir ~max_bytes:(1024 * 1024));
  Alcotest.(check bool) "tmp swept" false (Sys.file_exists dropping)

let test_store_lru_eviction () =
  with_store_dir @@ fun dir ->
  let store = Store.open_ ~dir ~max_bytes:(10 * 1024) in
  let blob = String.make (4 * 1024) 'x' in
  List.iter
    (fun key ->
      Store.store store ~ns:"results" ~key blob;
      (* distinct mtimes order the LRU deterministically *)
      Thread.delay 0.05)
    [ "a"; "b"; "c"; "d" ];
  Alcotest.(check (option string))
    "oldest evicted" None
    (Store.find store ~ns:"results" ~key:"a");
  Alcotest.(check (option string))
    "second oldest evicted" None
    (Store.find store ~ns:"results" ~key:"b");
  Alcotest.(check bool)
    "recent entries survive" true
    (Store.find store ~ns:"results" ~key:"c" <> None
    && Store.find store ~ns:"results" ~key:"d" <> None);
  let count, bytes = Store.stats store in
  Alcotest.(check int) "two entries left" 2 count;
  Alcotest.(check bool) "under budget" true (bytes <= 10 * 1024);
  (* a find touches the entry: [c] is now more recent than [d] *)
  ignore (Store.find store ~ns:"results" ~key:"c");
  Thread.delay 0.05;
  Store.store store ~ns:"results" ~key:"e" blob;
  Alcotest.(check bool)
    "LRU victim is the untouched entry" true
    (Store.find store ~ns:"results" ~key:"d" = None
    && Store.find store ~ns:"results" ~key:"c" <> None)

let test_warm_store_restart () =
  with_store_dir @@ fun dir ->
  let app = List.hd Registry.catalog in
  let req =
    { (Protocol.default_request Protocol.Detect (Protocol.App app.Registry.name)) with
      Protocol.prune = Config.Prune_drop;
      log = true }
  in
  let run_once () =
    let socket_path = fresh_socket () in
    let server =
      Server.start ~cache:(store_cache dir) (Server.default_config ~socket_path)
    in
    Fun.protect
      ~finally:(fun () ->
        Server.shutdown server;
        Server.wait server)
      (fun () ->
        with_client socket_path (fun conn ->
            let id, cached = Client.submit conn req in
            let result, _ = completed (Client.watch conn id) in
            (result, cached)))
  in
  let first, cached1 = run_once () in
  (* a brand-new server process-equivalent: fresh cache, same store *)
  let second, cached2 = run_once () in
  Alcotest.(check bool) "first run computes" false cached1;
  Alcotest.(check bool)
    "restarted server answers from the store without re-running" true cached2;
  Alcotest.(check string)
    "byte-identical run log across restart" first.Protocol.r_log
    second.Protocol.r_log;
  Alcotest.(check (list (pair string string)))
    "identical verdicts across restart" first.Protocol.r_non_atomic
    second.Protocol.r_non_atomic

(* An entry revived from the disk tier renders the same two frames as
   the entry that was stored, and the tier keeps the full payload. *)
let test_durable_entry_frames () =
  with_store_dir @@ fun dir ->
  let stored = Cache.store_result (store_cache dir) "k" sample_result in
  let revived = Option.get (Cache.find_result (store_cache dir) "k") in
  Alcotest.(check string) "the tier keeps the full payload" stored.Cache.e_rendered
    (read_file (Filename.concat (Filename.concat dir "results") "k"));
  List.iter
    (fun log ->
      Alcotest.(check string)
        (Printf.sprintf "revived warm frame, log=%b" log)
        (Cache.warm_frame stored ~log) (Cache.warm_frame revived ~log))
    [ true; false ];
  Alcotest.(check string) "log-less rendering"
    (Json.to_string (Protocol.result_to_json ~log:false sample_result))
    revived.Cache.e_rendered_nolog

(* The disk tier is never fatal.  Namespace directories replaced by
   regular files make every store write and read fail with ENOTDIR
   (even as root, where a chmod would not); the cache still answers
   from memory. *)
let test_store_write_failures () =
  with_store_dir @@ fun dir ->
  let cache = store_cache dir in
  List.iter
    (fun ns ->
      let d = Filename.concat dir ns in
      rm_rf d;
      write_file d "not a directory")
    [ "results"; "images" ];
  let e = Cache.store_result cache "k" sample_result in
  Alcotest.(check string) "store_result returns its entry"
    (Cache.entry sample_result).Cache.e_rendered e.Cache.e_rendered;
  Alcotest.(check (option string)) "a memory hit"
    (Some e.Cache.e_rendered)
    (Option.map (fun e -> e.Cache.e_rendered) (Cache.find_result cache "k"));
  Alcotest.(check bool) "an unreadable tier is a miss" true
    (Cache.find_result cache "other" = None);
  let program = parse (Option.get (Registry.find "stdQ")).Registry.source in
  ignore (Cache.images cache ~program_digest:"d" ~flavor:Detect.Source_weaving program);
  Alcotest.(check (pair int int)) "an image compiled, a result kept" (1, 1)
    (Cache.stats cache);
  Alcotest.(check (pair int int)) "a cache opened on the broken tier is empty"
    (0, 0) (Cache.stats (store_cache dir))

(* A result blob that does not decode is a miss, not an exception. *)
let test_store_junk_result () =
  with_store_dir @@ fun dir ->
  let cache = store_cache dir in
  let results = Filename.concat dir "results" in
  write_file (Filename.concat results "junk") "not json";
  write_file (Filename.concat results "shape") {|{"schema":"nope"}|};
  List.iter
    (fun key ->
      Alcotest.(check bool) ("junk blob " ^ key ^ " is a miss") true
        (Cache.find_result cache key = None))
    [ "junk"; "shape" ]

(* Prewarm recompiles the stored images and skips junk metadata. *)
let test_store_junk_images () =
  with_store_dir @@ fun dir ->
  let program = parse (Option.get (Registry.find "stdQ")).Registry.source in
  ignore
    (Cache.images (store_cache dir) ~program_digest:"d"
       ~flavor:Detect.Source_weaving program);
  let images = Filename.concat dir "images" in
  List.iter
    (fun (key, payload) -> write_file (Filename.concat images key) payload)
    [ ("junk", "not json");
      ("empty", "{}");
      ("flavor", {|{"digest":"e","flavor":"nope","source":""}|});
      ("source", {|{"digest":"f","flavor":"source","source":"class {"}|}) ];
  Alcotest.(check (pair int int)) "only the good image prewarms" (1, 0)
    (Cache.stats (store_cache dir))

(* ------------------------------------------------------------------ *)
(* The client: connect backoff and resubmission after a drop          *)
(* ------------------------------------------------------------------ *)

module Net = Failatom_server.Net

let test_client_backoff () =
  let socket_path = fresh_socket () in
  (* no retries: a missing socket fails immediately *)
  (match Client.with_conn ~socket_path (fun _ -> ()) with
   | () -> Alcotest.fail "connected to nothing"
   | exception (Client.Error _ | Unix.Unix_error _) -> ());
  (* with retries: a server that appears late is waited for *)
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        let server = Server.start (Server.default_config ~socket_path) in
        Server.wait server)
      ()
  in
  Client.with_conn ~retries:10 ~socket_path Client.shutdown;
  Thread.join starter;
  if Sys.file_exists socket_path then Sys.remove socket_path

let frame fields = Json.to_string (Protocol.ok fields)

let event_frame ev =
  match Protocol.event_to_json ev with
  | Json.Obj fields -> frame fields
  | _ -> Alcotest.fail "an event renders as an object"

(* A scripted stand-in for the daemon.  Every connection is greeted;
   each request line is answered by [answer ~submit line] with reply
   lines, or with [None] to close the connection instead.  [submit]
   numbers the submit lines seen so far (across connections, from 1).
   Returns [f socket_path] and the number of submit lines seen. *)
let with_scripted answer f =
  let socket_path = fresh_socket () in
  let listener = Net.listen ~socket_path in
  let submits = Atomic.make 0 in
  let stop = Atomic.make false in
  let serve fd =
    let rd = Net.reader fd in
    let rec loop () =
      match Net.read_line rd with
      | None -> ()
      | Some line -> (
        let submit =
          if Json.str_member "cmd" (Json.of_string line) = Some "submit" then
            Atomic.fetch_and_add submits 1 + 1
          else Atomic.get submits
        in
        match answer ~submit line with
        | None -> ()
        | Some replies ->
          List.iter (Net.write_line fd) replies;
          loop ())
    in
    Fun.protect
      ~finally:(fun () -> Net.close_noerr fd)
      (fun () ->
        Net.write_line fd (Json.to_string Protocol.greeting);
        loop ())
  in
  let acceptor =
    Thread.create
      (fun () -> Net.accept_loop ~stop:(fun () -> Atomic.get stop) listener serve)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () ->
      let r = f socket_path in
      (r, Atomic.get submits))

(* Submit [n] is answered with job [j<n>]; its watch gets [watch n]. *)
let scripted_job watch ~submit line =
  match Json.str_member "cmd" (Json.of_string line) with
  | Some "submit" ->
    Some
      [ frame
          [ ("job", Json.Str (Printf.sprintf "j%d" submit));
            ("state", Json.Str "queued");
            ("cached", Json.Bool false) ] ]
  | Some "watch" -> watch submit
  | _ -> Some [ Json.to_string (Protocol.error "unexpected request") ]

let running = event_frame (Protocol.Ev_state "running")

let scripted_submit ?(retries = 5) answer =
  with_scripted answer (fun socket_path ->
      match
        Client.with_job ~retries ~socket_path
          (Protocol.default_request Protocol.Detect (Protocol.App "stdQ"))
          (fun _ id outcome -> (id, outcome))
      with
      | r -> Ok r
      | exception Client.Error { dropped; _ } -> Error dropped)

(* The resubmit loop against a scripted daemon: a drop before the
   terminal frame resubmits, within the retry budget; a refusal, a
   malformed reply or a terminal failure is final.  One case per
   claim: each names the outcome and the number of submit lines the
   daemon saw. *)
let resubmit_outcome_name = function
  | Ok (id, Client.Completed _) -> "completed " ^ id
  | Ok (id, Client.Job_failed _) -> "failed " ^ id
  | Ok (id, Client.Job_cancelled) -> "cancelled " ^ id
  | Ok (id, Client.Job_timed_out) -> "timed out " ^ id
  | Error dropped -> Printf.sprintf "Client.Error (dropped %b)" dropped

let resubmit_case name ?retries answer (want, want_submits) =
  ( name,
    fun () ->
      let r, submits = scripted_submit ?retries answer in
      Alcotest.(check (pair string int)) name (want, want_submits)
        (resubmit_outcome_name r, submits) )

let done_frame () =
  event_frame (Protocol.Ev_done { result = sample_result; cached = false })

let resubmit_cases =
  [ (* dropped mid-watch twice, then served *)
    resubmit_case "drops are resubmitted"
      (scripted_job (fun n -> if n < 3 then None else Some [ running; done_frame () ]))
      ("completed j3", 3);
    resubmit_case "a drop before the submit reply is resubmitted"
      (fun ~submit line ->
        if submit = 1 then None
        else scripted_job (fun _ -> Some [ done_frame () ]) ~submit line)
      ("completed j2", 2);
    resubmit_case "the budget bounds resubmission" ~retries:2
      (scripted_job (fun _ -> None))
      ("Client.Error (dropped true)", 3);
    resubmit_case "retries 0 never resubmits" ~retries:0
      (scripted_job (fun _ -> None))
      ("Client.Error (dropped true)", 1);
    resubmit_case "a refusal is final"
      (fun ~submit:_ _ -> Some [ Json.to_string (Protocol.error "unknown app") ])
      ("Client.Error (dropped false)", 1);
    resubmit_case "a malformed reply is final"
      (fun ~submit:_ _ -> Some [ "not json" ])
      ("Client.Error (dropped false)", 1) ]
  @ List.map
      (fun (ev, want) ->
        resubmit_case
          ("a terminal " ^ want ^ " frame is final")
          (scripted_job (fun _ -> Some [ running; event_frame ev ]))
          (want ^ " j1", 1))
      [ (Protocol.Ev_error "boom", "failed");
        (Protocol.Ev_cancelled, "cancelled");
        (Protocol.Ev_timeout, "timed out") ]

(* The other half of resubmission: a job that finished before the drop
   is answered by the restarted daemon from the store, without a
   re-run, and the log op serves that job's one-shot log. *)
let test_resubmit_finished_from_store () =
  with_store_dir @@ fun dir ->
  let socket_path = fresh_socket () in
  let req =
    { (Protocol.default_request Protocol.Detect (Protocol.App "stdQ")) with
      Protocol.prune = Config.Prune_drop }
  in
  let with_daemon f =
    let server =
      Server.start ~cache:(store_cache dir) (Server.default_config ~socket_path)
    in
    Fun.protect
      ~finally:(fun () ->
        Server.shutdown server;
        Server.wait server;
        if Sys.file_exists socket_path then Sys.remove socket_path)
      f
  in
  let job () =
    Client.with_job ~retries:10 ~socket_path req (fun conn id outcome ->
        (Client.log conn id, snd (completed outcome)))
  in
  let first_log, first_cached = with_daemon job in
  let second_log, second_cached = with_daemon job in
  Alcotest.(check bool) "the first daemon computes" false first_cached;
  Alcotest.(check bool) "the restarted daemon answers from the store" true
    second_cached;
  let app = Option.get (Registry.find "stdQ") in
  let one_shot =
    Run_log.save
      (Detect.run
         ~config:{ Config.default with Config.prune = Config.Prune_drop }
         ~flavor:(Harness.flavor_of_suite app.Registry.suite)
         (parse app.Registry.source))
  in
  Alcotest.(check string) "first log is the one-shot log" one_shot first_log;
  Alcotest.(check string) "log op from the store is the one-shot log" one_shot
    second_log

let failatom_exe () =
  match Sys.getenv_opt "FAILATOM_EXE" with
  | Some exe when Sys.file_exists exe -> Some exe
  | _ -> None

(* A real daemon under a restart loop: [failatom serve --store] is
   killed with SIGKILL the first time the watched job runs and started
   again on the same socket and store.  With retries the client
   resubmits and the job completes with the one-shot log; without, the
   drop surfaces as [Client.Error]. *)
let test_kill_resubmit () =
  match failatom_exe () with
  | None -> ()  (* binary not wired in; covered by the CI server smoke *)
  | Some exe ->
    with_store_dir @@ fun store ->
    let socket_path = fresh_socket () in
    let spawn () =
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close null)
        (fun () ->
          Unix.create_process exe
            [| exe; "serve"; "--socket"; socket_path; "--store"; store |]
            Unix.stdin null null)
    in
    let daemon = ref (spawn ()) in
    let kill_when_running () =
      let killed = ref false in
      let on_event = function
        | Protocol.Ev_state "running" when not !killed ->
          killed := true;
          Unix.kill !daemon Sys.sigkill;
          ignore (Unix.waitpid [] !daemon);
          daemon := spawn ()
        | _ -> ()
      in
      (killed, on_event)
    in
    Fun.protect
      ~finally:(fun () ->
        (try Client.with_conn ~retries:20 ~socket_path Client.shutdown
         with Client.Error _ -> Unix.kill !daemon Sys.sigkill);
        ignore (Unix.waitpid [] !daemon);
        if Sys.file_exists socket_path then Sys.remove socket_path)
      (fun () ->
        (* the first daemon is up before a client that will not retry *)
        Client.with_conn ~retries:40 ~socket_path ignore;
        (* RegExp has the most points of the bundled apps: its job runs
           long enough to be killed while it runs *)
        let req =
          { (Protocol.default_request Protocol.Campaign (Protocol.App "RegExp")) with
            Protocol.prune = Config.Prune_off;
            run_timeout_s = Some 600. }
        in
        let killed, on_event = kill_when_running () in
        (match
           Client.with_job ~retries:0 ~on_event ~socket_path req (fun _ _ _ -> ())
         with
         | () -> Alcotest.fail "the job outlived its daemon"
         | exception Client.Error { dropped; _ } ->
           Alcotest.(check bool) "retries 0: the kill was seen" true !killed;
           Alcotest.(check bool) "retries 0: raised as a drop" true dropped);
        let killed, on_event = kill_when_running () in
        let log, cached =
          Client.with_job ~retries:10 ~on_event ~socket_path req
            (fun conn id outcome -> (Client.log conn id, snd (completed outcome)))
        in
        Alcotest.(check bool) "retries 10: the kill happened" true !killed;
        Alcotest.(check bool) "the resubmitted job re-ran" false cached;
        let app = Option.get (Registry.find "RegExp") in
        Alcotest.(check string) "the one-shot log"
          (Run_log.save
             (Detect.run
                ~config:{ Config.default with Config.prune = Config.Prune_off }
                ~flavor:(Harness.flavor_of_suite app.Registry.suite)
                (parse app.Registry.source)))
          log)

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
    Alcotest.test_case "walking job summary == fresh-VM job's" `Quick
      test_walk_summary_matches_fresh;
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
    Alcotest.test_case "stats snapshot is parseable" `Quick test_stats_snapshot;
    Alcotest.test_case "no log field: replies carry the log" `Quick
      test_absent_log_field;
    Alcotest.test_case "log:false frame omits only the log" `Quick
      test_logless_frame;
    Alcotest.test_case "log op returns the one-shot log" `Quick test_log_op;
    Alcotest.test_case "finished jobs are bounded" `Quick
      test_finished_jobs_bounded;
    Alcotest.test_case "store round trip and crash hygiene" `Quick
      test_store_round_trip;
    Alcotest.test_case "store LRU byte-bound eviction" `Quick
      test_store_lru_eviction;
    Alcotest.test_case "warm store restart answers without re-running" `Quick
      test_warm_store_restart;
    Alcotest.test_case "store write failures are not fatal" `Quick
      test_store_write_failures;
    Alcotest.test_case "junk result blob is a miss" `Quick test_store_junk_result;
    Alcotest.test_case "prewarm skips junk image metadata" `Quick
      test_store_junk_images;
    Alcotest.test_case "durable-tier entry renders both frames" `Quick
      test_durable_entry_frames;
    Alcotest.test_case "retired infer member shares one cache key" `Quick
      test_infer_field_compat;
    Alcotest.test_case "client connect backoff" `Quick test_client_backoff ]
  @ List.map
      (fun (name, f) -> Alcotest.test_case ("client resubmit: " ^ name) `Quick f)
      resubmit_cases
  @ [ Alcotest.test_case "restarted daemon answers a finished job from the store"
        `Quick test_resubmit_finished_from_store;
      Alcotest.test_case "kill -9 mid-job: resubmitted to the restarted daemon"
        `Slow test_kill_resubmit ]
