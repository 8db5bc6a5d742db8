(* Tests of the sharded detection cluster (lib/cluster/): placement and
   work-stealing decisions, client connect backoff, the router against
   in-process shard servers (digest affinity, byte-identical results vs
   a single server, dead-shard failover), and — when the failatom
   binary is available via FAILATOM_EXE — the supervisor's
   respawn/redispatch and drain ordering with real shard processes.
   The store the shards share is tested with the single daemon, in
   test_server.ml. *)

open Failatom_apps
module Server = Failatom_server.Server
module Client = Failatom_server.Client
module Protocol = Failatom_server.Protocol
module Shard_map = Failatom_cluster.Shard_map
module Steal = Failatom_cluster.Steal
module Router = Failatom_cluster.Router
module Supervisor = Failatom_cluster.Supervisor

(* Unix sockets live in sun_path (~104 bytes), so build short names
   under the system temp dir rather than a nested dune sandbox path. *)
let fresh_name =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fa_clu_%d_%d%s" (Unix.getpid ()) !counter suffix)

(* [log = true]: the tests below compare run logs across paths. *)
let detect_request app =
  { (Protocol.default_request Protocol.Detect (Protocol.App app.Registry.name)) with
    Protocol.prune = Failatom_core.Config.Prune_drop;
    log = true }

let completed = function
  | Client.Completed (result, cached) -> (result, cached)
  | Client.Job_failed msg -> Alcotest.failf "job failed: %s" msg
  | Client.Job_cancelled -> Alcotest.fail "job unexpectedly cancelled"
  | Client.Job_timed_out -> Alcotest.fail "job unexpectedly timed out"

(* ------------------------------------------------------------------ *)
(* Placement: shard map and steal decisions                            *)
(* ------------------------------------------------------------------ *)

let test_shard_map () =
  (* stable *)
  let d = String.make 32 'a' in
  Alcotest.(check int)
    "same digest, same shard"
    (Shard_map.shard_of_digest ~shards:4 d)
    (Shard_map.shard_of_digest ~shards:4 d);
  (* in range, and every shard is somebody's home *)
  let hit = Array.make 4 false in
  for i = 0 to 199 do
    let digest = Digest.to_hex (Digest.string (string_of_int i)) in
    let s = Shard_map.shard_of_digest ~shards:4 digest in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    hit.(s) <- true
  done;
  Alcotest.(check bool) "uniform enough" true (Array.for_all Fun.id hit);
  (* the real key population: every bundled app's digest.  This is the
     small, correlated key set that the old [leading-hex mod shards]
     placement skewed (one shard owned nothing under the app-mix load);
     rendezvous hashing must give every shard at least one home app. *)
  let app_hits = Array.make 4 0 in
  List.iter
    (fun (app : Registry.t) ->
      match Shard_map.digest_of_spec (Protocol.App app.Registry.name) with
      | None -> Alcotest.failf "no digest for bundled app %s" app.Registry.name
      | Some digest ->
        let s = Shard_map.shard_of_digest ~shards:4 digest in
        app_hits.(s) <- app_hits.(s) + 1)
    Registry.catalog;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns at least one app" i)
        true (n > 0))
    app_hits;
  (* job ids *)
  Alcotest.(check string) "global id" "s2-j7" (Shard_map.global_job_id ~shard:2 "j7");
  Alcotest.(check (option (pair int string)))
    "parse inverse"
    (Some (2, "j7"))
    (Shard_map.parse_job_id "s2-j7");
  Alcotest.(check (option (pair int string)))
    "non-cluster id" None (Shard_map.parse_job_id "j7");
  (* the client-side digest matches what the server caches under *)
  let app = List.hd Registry.catalog in
  (match Shard_map.digest_of_spec (Protocol.App app.Registry.name) with
   | None -> Alcotest.fail "no digest for a bundled app"
   | Some digest ->
     let program = Failatom_minilang.Minilang.parse app.Registry.source in
     Alcotest.(check string)
       "digest is the program digest"
       (Failatom_minilang.Minilang.program_digest program)
       digest);
  Alcotest.(check (option string))
    "unknown app has no digest" None
    (Shard_map.digest_of_spec (Protocol.App "no-such-app"))

let test_map_file () =
  let base = fresh_name ".sock" in
  let map =
    { Shard_map.m_router = base;
      m_shards =
        [ { Shard_map.e_socket = base ^ ".shard0"; e_pid = 41 };
          { Shard_map.e_socket = base ^ ".shard1"; e_pid = 42 } ] }
  in
  Shard_map.write_map ~base map;
  (match Shard_map.read_map ~base with
   | None -> Alcotest.fail "map did not read back"
   | Some m ->
     Alcotest.(check string) "router" base m.Shard_map.m_router;
     Alcotest.(check (list (pair string int)))
       "shards"
       [ (base ^ ".shard0", 41); (base ^ ".shard1", 42) ]
       (List.map
          (fun e -> (e.Shard_map.e_socket, e.Shard_map.e_pid))
          m.Shard_map.m_shards));
  Shard_map.remove_map ~base;
  Alcotest.(check bool)
    "map removed" true
    (Shard_map.read_map ~base = None)

let test_steal_decisions () =
  let check name expected decision =
    Alcotest.(check (pair int bool))
      name expected
      (decision.Steal.target, decision.Steal.stolen)
  in
  let alive = [| true; true; true |] in
  check "idle home stays home" (1, false)
    (Steal.place ~home:1 ~load:[| 0; 0; 0 |] ~alive ~threshold:4);
  check "small imbalance stays home" (1, false)
    (Steal.place ~home:1 ~load:[| 0; 3; 0 |] ~alive ~threshold:4);
  check "big imbalance steals to idlest" (2, true)
    (Steal.place ~home:1 ~load:[| 2; 6; 1 |] ~alive ~threshold:4);
  check "dead home fails over to least-loaded live shard" (2, true)
    (Steal.place ~home:0 ~load:[| 0; 5; 1 |]
       ~alive:[| false; true; true |] ~threshold:4);
  check "all dead still yields a target" (0, false)
    (Steal.place ~home:0 ~load:[| 1; 1 |] ~alive:[| false; false |] ~threshold:4)

(* ------------------------------------------------------------------ *)
(* Client connect backoff                                              *)
(* ------------------------------------------------------------------ *)

let test_client_backoff () =
  let socket_path = fresh_name ".sock" in
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

(* ------------------------------------------------------------------ *)
(* Router over in-process shard servers                                *)
(* ------------------------------------------------------------------ *)

(* Starts [shards] in-process servers on shard sockets plus a router on
   the base socket — the full cluster data plane without child
   processes (the supervisor tests below cover real processes). *)
let with_router ?(shards = 2) ?(dead = []) f =
  let base = fresh_name ".sock" in
  let servers =
    List.init shards (fun i ->
        if List.mem i dead then None
        else
          Some
            (Server.start
               (Server.default_config
                  ~socket_path:(Shard_map.shard_socket ~base i))))
  in
  let router =
    Router.start
      (Router.default_config ~socket_path:base
         ~shard_sockets:(Array.init shards (Shard_map.shard_socket ~base)))
  in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown router;
      Router.wait router;
      List.iter
        (Option.iter (fun s ->
             Server.shutdown s;
             Server.wait s))
        servers;
      List.iteri
        (fun i _ ->
          let p = Shard_map.shard_socket ~base i in
          if Sys.file_exists p then Sys.remove p)
        servers)
    (fun () -> f base)

let test_router_affinity () =
  with_router (fun base ->
      let app = List.hd Registry.catalog in
      let submit () =
        Client.with_conn ~socket_path:base (fun conn ->
            let id, cached = Client.submit conn (detect_request app) in
            let result, _ = completed (Client.watch conn id) in
            (id, cached, result))
      in
      let id1, cached1, result1 = submit () in
      let id2, cached2, result2 = submit () in
      Alcotest.(check bool) "first run computes" false cached1;
      Alcotest.(check bool) "resubmission is a cache hit" true cached2;
      Alcotest.(check bool) "the warm result is the cold one" true (result1 = result2);
      let shard_of id =
        match Shard_map.parse_job_id id with
        | Some (s, _) -> s
        | None -> Alcotest.failf "job id %S is not shard-qualified" id
      in
      Alcotest.(check int)
        "same program lands on the same shard (affinity)" (shard_of id1)
        (shard_of id2);
      (* and it is the digest-selected home shard *)
      match Shard_map.digest_of_spec (Protocol.App app.Registry.name) with
      | None -> Alcotest.fail "app digest"
      | Some digest ->
        Alcotest.(check int)
          "affinity shard is the digest home"
          (Shard_map.shard_of_digest ~shards:2 digest)
          (shard_of id1))

(* Every bundled app, detect mode, routed through a 2-shard cluster:
   the result must be byte-identical (run log included) to what one
   standalone server computes. *)
let test_router_matches_single_server () =
  let single_socket = fresh_name ".sock" in
  let single = Server.start (Server.default_config ~socket_path:single_socket) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown single;
      Server.wait single)
    (fun () ->
      with_router (fun base ->
          List.iter
            (fun (app : Registry.t) ->
              let req = detect_request app in
              let via_cluster, _ =
                Client.with_conn ~socket_path:base (fun conn ->
                    completed (Client.submit_wait conn req))
              in
              let via_single, _ =
                Client.with_conn ~socket_path:single_socket (fun conn ->
                    completed (Client.submit_wait conn req))
              in
              Alcotest.(check bool)
                (app.Registry.name ^ ": the compared log is not empty")
                true (via_single.Protocol.r_log <> "");
              Alcotest.(check string)
                (app.Registry.name ^ ": identical run log")
                via_single.Protocol.r_log via_cluster.Protocol.r_log;
              Alcotest.(check (list (pair string string)))
                (app.Registry.name ^ ": identical verdicts")
                via_single.Protocol.r_non_atomic via_cluster.Protocol.r_non_atomic;
              Alcotest.(check int)
                (app.Registry.name ^ ": identical injections")
                via_single.Protocol.r_injections via_cluster.Protocol.r_injections)
            Registry.catalog))

(* A job whose digest-selected home shard is dead must fail over to a
   live shard and still complete. *)
let test_router_dead_shard_failover () =
  let app = List.hd Registry.catalog in
  let home =
    match Shard_map.digest_of_spec (Protocol.App app.Registry.name) with
    | Some digest -> Shard_map.shard_of_digest ~shards:2 digest
    | None -> Alcotest.fail "app digest"
  in
  with_router ~dead:[ home ] (fun base ->
      let result, _ =
        Client.with_conn ~socket_path:base (fun conn ->
            completed (Client.submit_wait conn (detect_request app)))
      in
      Alcotest.(check bool)
        "job completed on the surviving shard" true
        (String.length result.Protocol.r_log > 0))

(* The router relays the [log] op like [status], mapping the global id
   to the shard-local one; a submit line without a [log] field (an
   older client) is relayed as it came and answered with the log. *)
let test_router_log_op () =
  let open Failatom_core in
  let app = List.hd Registry.catalog in
  let expected =
    Run_log.save
      (Detect.run
         ~config:{ Config.default with Config.prune = Config.Prune_drop }
         ~flavor:(Harness.flavor_of_suite app.Registry.suite)
         (Failatom_minilang.Minilang.parse app.Registry.source))
  in
  let req = { (detect_request app) with Protocol.log = false } in
  with_router (fun base ->
      Client.with_conn ~socket_path:base (fun conn ->
          List.iter
            (fun cached ->
              let id, c = Client.submit conn req in
              Alcotest.(check bool) "cached" cached c;
              let result, _ = completed (Client.watch conn id) in
              Alcotest.(check string) "no log in the relayed frame" ""
                result.Protocol.r_log;
              Alcotest.(check string) "relayed log op: the one-shot log" expected
                (Client.log conn id))
            [ false; true ];
          List.iter
            (fun id ->
              match Client.log conn id with
              | _ -> Alcotest.failf "log of unknown job %s returned" id
              | exception Client.Error _ -> ())
            [ "s0-j999"; "nope" ];
          let line =
            match Protocol.request_to_json (Protocol.Submit req) with
            | Json.Obj fields -> Json.to_string (Json.Obj (List.remove_assoc "log" fields))
            | _ -> Alcotest.fail "a submit renders as an object"
          in
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX base);
          let ic = Unix.in_channel_of_descr fd
          and oc = Unix.out_channel_of_descr (Unix.dup fd) in
          Fun.protect
            ~finally:(fun () ->
              close_out_noerr oc;
              close_in_noerr ic)
            (fun () ->
              ignore (input_line ic);
              output_string oc (line ^ "\n");
              flush oc;
              let id =
                Option.get (Json.str_member "job" (Json.of_string (input_line ic)))
              in
              let status = Client.status conn id in
              Alcotest.(check string) "old client: done at submit" "done"
                status.Client.state;
              Alcotest.(check string) "old client: the log in the reply" expected
                (Option.get status.Client.result).Protocol.r_log)))

(* ------------------------------------------------------------------ *)
(* Supervisor with real shard processes (needs the failatom binary)    *)
(* ------------------------------------------------------------------ *)

let failatom_exe () =
  match Sys.getenv_opt "FAILATOM_EXE" with
  | Some exe when Sys.file_exists exe -> Some exe
  | _ -> None

let with_supervisor ?(shards = 2) ~exe f =
  let events = ref [] in
  let events_mutex = Mutex.create () in
  let record e =
    Mutex.lock events_mutex;
    events := e :: !events;
    Mutex.unlock events_mutex
  in
  let base = fresh_name ".sock" in
  let config =
    { (Supervisor.default_config ~base_socket:base ~exe) with
      Supervisor.on_event = record }
  in
  let sup = Supervisor.start config in
  let finish () =
    Supervisor.stop sup;
    Supervisor.wait sup
  in
  Fun.protect ~finally:finish (fun () -> f base sup);
  ignore shards;
  List.rev !events

let test_supervisor_kill_respawn_redispatch () =
  match failatom_exe () with
  | None -> ()  (* binary not wired in; covered by the CI smoke job *)
  | Some exe ->
    let app =
      List.find (fun a -> a.Registry.name = "xml2Cviasc2") Registry.catalog
    in
    let req =
      { (Protocol.default_request Protocol.Campaign
           (Protocol.App app.Registry.name)) with
        Protocol.prune = Failatom_core.Config.Prune_drop;
        log = true }
    in
    let events =
      with_supervisor ~exe (fun base sup ->
          let (result, _), (shard, killed) =
            Client.with_conn ~retries:10 ~socket_path:base (fun conn ->
                let id, _cached = Client.submit conn req in
                (* kill the job's home shard while it runs *)
                let victim =
                  match Shard_map.parse_job_id id with
                  | Some (shard, _) ->
                    let pid = (Supervisor.shard_pids sup).(shard) in
                    Unix.kill pid Sys.sigkill;
                    (shard, pid)
                  | None -> Alcotest.failf "unqualified cluster job id %S" id
                in
                (completed (Client.watch conn id), victim))
          in
          Alcotest.(check bool)
            "job survived its shard" true
            (String.length result.Protocol.r_log > 0);
          (* the supervisor must notice and respawn within its poll loop.
             [kill pid 0] succeeds on the killed shard until it is
             reaped, so only a new pid in its slot shows the respawn. *)
          let deadline = Unix.gettimeofday () +. 15.0 in
          let rec wait_respawn () =
            let pids = Supervisor.shard_pids sup in
            let alive =
              pids.(shard) <> killed
              && Array.for_all
                   (fun pid ->
                     pid > 0
                     && match Unix.kill pid 0 with
                        | () -> true
                        | exception Unix.Unix_error _ -> false)
                   pids
            in
            if alive then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "shard was not respawned"
            else begin
              Thread.delay 0.1;
              wait_respawn ()
            end
          in
          wait_respawn ())
    in
    Alcotest.(check bool)
      "a respawn was reported" true
      (List.exists
         (function Supervisor.Shard_respawned _ -> true | _ -> false)
         events)

let test_supervisor_drain_ordering () =
  match failatom_exe () with
  | None -> ()
  | Some exe ->
    let events = with_supervisor ~exe (fun _base _sup -> Thread.delay 0.2) in
    let index p =
      let rec go i = function
        | [] -> None
        | e :: _ when p e -> Some i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 events
    in
    let get name = function
      | Some i -> i
      | None -> Alcotest.failf "event %s never happened" name
    in
    let started i =
      get "shard started"
        (index (function Supervisor.Shard_started (j, _) -> j = i | _ -> false))
    in
    let router_started =
      get "router started" (index (( = ) Supervisor.Router_started))
    in
    let draining = get "draining" (index (( = ) Supervisor.Draining)) in
    let router_drained =
      get "router drained" (index (( = ) Supervisor.Router_drained))
    in
    let terminated i =
      get "shard terminated"
        (index (function Supervisor.Shard_terminated j -> j = i | _ -> false))
    in
    (* startup: every shard serves before the router opens *)
    Alcotest.(check bool)
      "shards start before the router" true
      (started 0 < router_started && started 1 < router_started);
    (* drain: router first, shards after *)
    Alcotest.(check bool) "drain begins" true (draining < router_drained);
    Alcotest.(check bool)
      "router drains before any shard is terminated" true
      (router_drained < terminated 0 && router_drained < terminated 1)

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "shard map: digests, homes, job ids" `Quick test_shard_map;
    Alcotest.test_case "map file round trip" `Quick test_map_file;
    Alcotest.test_case "steal decisions" `Quick test_steal_decisions;
    Alcotest.test_case "client connect backoff" `Quick test_client_backoff;
    Alcotest.test_case "router: digest affinity and cache hits" `Quick
      test_router_affinity;
    Alcotest.test_case "router: byte-identical to a single server (all apps)"
      `Slow test_router_matches_single_server;
    Alcotest.test_case "router: dead home shard fails over" `Quick
      test_router_dead_shard_failover;
    Alcotest.test_case "router: relays the log op" `Quick test_router_log_op;
    Alcotest.test_case "supervisor: kill -9 mid-job, respawn + redispatch"
      `Slow test_supervisor_kill_respawn_redispatch;
    Alcotest.test_case "supervisor: drain ordering" `Slow
      test_supervisor_drain_ordering ]
