(* serve-mixed: a fresh [failatom serve] child (one worker) takes a fixed
   number of submissions over two closed-loop connections, one thread
   each.  About 99% are warm detect hits over an eight-app mix; about
   1% are cold: seeded, behaviour-preserving inline variants of
   LinkedList and LinkedBuffer, so reads from the result cache run
   beside its writes (compile, one-worker campaign, cache insert).

   Each job is what [failatom submit] does: a submit round trip, then a
   watch round trip to the terminal frame, every frame decoded as
   [Client.watch] decodes it.  The client speaks the wire through [Net]
   so the raw done frame can be timed, sized and byte-checked. *)

open Failatom_core
open Common
module Protocol = Failatom_server.Protocol
module Client = Failatom_server.Client
module Net = Failatom_server.Net

(* The mix of the cluster section of bench/main.ml. *)
let warm_apps =
  [ "RBTree"; "stdQ"; "HashedMap"; "LinkedList"; "Dynarray"; "adaptorChain";
    "CircularList"; "LLMap" ]

let cold_bases = [ "LinkedList"; "LinkedBuffer" ]

(* Jobs per requested second, calibrated on a 2-core machine.  The
   count is fixed because the daemon never prunes its job table: every
   warm hit keeps its rendered done frame (~270 KB for RBTree), so the
   daemon grows with the job count, and a duration-bound run would
   grow it further the faster the program got. *)
let jobs_per_second = 100.

(* Jobs run in windows of [window]: both connections work through their
   share of a window, then the machine kernel runs while the client is
   idle.  Every window holds exactly one cold job, at a seeded offset,
   so all windows do the same kind of work and their median rate is a
   steady figure. *)
let window = 100

(* [failatom submit app:NAME]'s request: CLI defaults, coalescing on. *)
let request program flavor =
  { (Protocol.default_request Protocol.Detect program) with
    Protocol.prune = Config.Prune_coalesce;
    flavor }

let submit_line req = Json.to_string (Protocol.request_to_json (Protocol.Submit req))

(* A variant differs from its base only by an unused local at the top
   of [main]: a new program digest (a cache miss) with the same
   injection points and verdicts. *)
let variant_source base k =
  let app = Option.get (Failatom_apps.Registry.find base) in
  let marker = "function main() {" in
  let src = app.Failatom_apps.Registry.source in
  let i =
    let rec find i =
      if String.sub src i (String.length marker) = marker then i else find (i + 1)
    in
    find 0
  in
  let cut = i + String.length marker in
  String.sub src 0 cut
  ^ Printf.sprintf "\n  var perfbenchVariant = %d;" k
  ^ String.sub src cut (String.length src - cut)

type job = { key : string; line : string; cold : bool }

(* The seeded job list: one cold variant per window at a seeded offset,
   alternating bases, each with a distinct pad; around them the warm
   apps in seeded order, each app equally often (give or take one), so
   the seed moves the order of the work, not its amount. *)
let jobs_of_seed seed n =
  let st = rng seed 4 in
  let warm =
    Array.of_list
      (List.map
         (fun a -> { key = a; line = submit_line (request (Protocol.App a) None); cold = false })
         warm_apps)
  in
  let slots = Hashtbl.create (n / window) in
  for w = 0 to (n / window) - 1 do
    Hashtbl.replace slots ((w * window) + Random.State.int st window) ()
  done;
  let warm_jobs =
    ref
      (shuffle st
         (List.init (n - Hashtbl.length slots) (fun i -> warm.(i mod Array.length warm))))
  in
  let next_warm () =
    match !warm_jobs with
    | j :: rest ->
      warm_jobs := rest;
      j
    | [] -> assert false
  in
  let k = ref 0 in
  List.init n (fun i ->
      if Hashtbl.mem slots i then begin
        incr k;
        let base = List.nth cold_bases (!k mod 2) in
        let flavor =
          Failatom_apps.(Harness.flavor_of_suite (Option.get (Registry.find base)).Registry.suite)
        in
        let src = variant_source base ((seed * 1000) + !k) in
        { key = base;
          line = submit_line (request (Protocol.Inline src) (Some flavor));
          cold = true }
      end
      else next_warm ())

(* ---- a raw connection ---- *)

type conn = { fd : Unix.file_descr; rd : Net.reader }

let connect socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  let c = { fd; rd = Net.reader fd } in
  match Net.read_line c.rd with
  | Some _greeting -> c
  | None -> failwith "daemon closed the connection before its greeting"

let terminal frame =
  let has s =
    let n = String.length s in
    let rec go i = i + n <= String.length frame && (String.sub frame i n = s || go (i + 1)) in
    go 0
  in
  List.exists has
    [ "\"event\":\"done\""; "\"event\":\"error\""; "\"event\":\"cancelled\"";
      "\"event\":\"timeout\""; "\"ok\":false" ]

type reply = Refused of string | Accepted of string * bool (* job id, cached *)

let submit c line =
  Net.write_line c.fd line;
  match Net.read_line c.rd with
  | None -> Refused "connection closed"
  | Some r -> (
    let j = Json.of_string r in
    match (Json.bool_member "ok" j, Json.str_member "job" j, Json.bool_member "cached" j) with
    | Some true, Some id, Some cached -> Accepted (id, cached)
    | _ -> Refused r)

(* Reads the watch stream to its terminal frame; returns every frame. *)
let watch c id =
  Net.write_line c.fd (Json.to_string (Protocol.request_to_json (Protocol.Watch id)));
  let rec loop acc =
    match Net.read_line c.rd with
    | None -> List.rev acc
    | Some f -> if terminal f then List.rev (f :: acc) else loop (f :: acc)
  in
  loop []

let decode frames =
  List.map (fun f -> Protocol.event_of_json (Json.of_string f)) frames

(* ---- the daemon ---- *)

(* run.sh builds the CLI next to this executable's directory. *)
let failatom_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "failatom.exe")

type daemon = { pid : int; socket : string }

let start_daemon () =
  (* relative, so the path stays short of the socket-name limit *)
  let out = Filename.concat "perfbench" "out" in
  let socket = Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  if Sys.file_exists socket then Sys.remove socket;
  let exe = failatom_exe () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--workers"; "1" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket } in
  (* wait for the greeting *)
  (try Client.with_conn ~retries:40 ~socket_path:socket ignore
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     raise e);
  d

let stop_daemon d =
  (try Client.with_conn ~socket_path:d.socket Client.shutdown
   with _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  if Sys.file_exists d.socket then Sys.remove d.socket

let rss_kb d = Option.value ~default:0 (status_kb (Some d.pid) "VmRSS")

let stats d =
  Obs.parse_json (Client.with_conn ~socket_path:d.socket Client.stats)

(* ---- set-up: a warm daemon ---- *)

type warm = {
  daemon : daemon;
  frames : (string, string) Hashtbl.t;  (** key -> the first done frame seen *)
  verdicts : (string, Protocol.job_result) Hashtbl.t;  (** cold base -> its result *)
}

let result_of frames =
  List.find_map
    (function Ok (Protocol.Ev_done { result; _ }) -> Some result | _ -> None)
    (decode frames)

(* Starts the daemon and computes every app once (cold), then submits
   each again to pin the warm done frame the timed jobs must repeat
   byte for byte. *)
let warm_up () =
  let d = start_daemon () in
  try
    let c = connect d.socket in
    let frames = Hashtbl.create 16 and verdicts = Hashtbl.create 4 in
    let all = warm_apps @ List.filter (fun a -> not (List.mem a warm_apps)) cold_bases in
    List.iter
      (fun round ->
        List.iter
          (fun a ->
            match submit c (submit_line (request (Protocol.App a) None)) with
            | Refused r -> failwith ("warm-up submit refused: " ^ r)
            | Accepted (id, cached) ->
              let fs = watch c id in
              let last = List.nth fs (List.length fs - 1) in
              if round = 2 then begin
                if not cached then failwith ("warm-up resubmission missed the cache: " ^ a);
                Hashtbl.replace frames a last
              end
              else if List.mem a cold_bases then
                match result_of fs with
                | Some r -> Hashtbl.replace verdicts a r
                | None -> failwith ("warm-up job did not finish: " ^ a))
          all)
      [ 1; 2 ];
    Net.close_noerr c.fd;
    { daemon = d; frames; verdicts }
  with e ->
    stop_daemon d;
    raise e

(* Set-up is timed [setup_reps] times on fresh daemons; all but the
   last are stopped again, the last is the one under test. *)
let setup_reps = 3

let setup () =
  let clock = Machine.clock () in
  let rec go i spans =
    let w, span = Machine.measure clock warm_up in
    if i = setup_reps then (w, setup_of clock (span :: spans))
    else begin
      stop_daemon w.daemon;
      go (i + 1) (span :: spans)
    end
  in
  go 1 []

let same_verdicts (a : Protocol.job_result) (b : Protocol.job_result) =
  a.Protocol.r_non_atomic = b.Protocol.r_non_atomic
  && a.Protocol.r_counts = b.Protocol.r_counts
  && a.Protocol.r_injections = b.Protocol.r_injections
  && a.Protocol.r_transparent && b.Protocol.r_transparent

type sample = { key : string; cold : bool; ms : float; traced : bool; frame_bytes : int }

let run ~seed ~seconds ~trace =
  let n = window * max 1 (int_of_float (float_of_int seconds *. jobs_per_second) / window) in
  let jobs = Array.of_list (jobs_of_seed seed n) in
  let w, setup = setup () in
  let d = w.daemon in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let failed = ref 0 and mismatched = ref 0 and completed = ref 0 in
  let rss = ref [] in
  let rss_step = max 1 (n / 20) in
  let fail ~mismatch why =
    prerr_endline ("perfbench: serve-mixed: " ^ why);
    locked (fun () ->
        incr failed;
        if mismatch then incr mismatched)
  in
  (* one job; returns its sample, unscaled *)
  let one c i =
    let job = jobs.(i) in
    (* each connection alternates traced and untraced jobs *)
    let traced = trace && i / 2 mod 2 = 1 in
    let t0 = now () in
    let frame_bytes =
      Spans.with_span ~on:traced "serve-mixed.op" (fun root ->
          let span name f = Spans.with_span ~on:traced ~parent:root name (fun _ -> f ()) in
          match span "server.submit" (fun () -> submit c job.line) with
          | Refused r ->
            fail ~mismatch:false ("refused: " ^ r);
            0
          | Accepted (id, cached) ->
            let frames = span "server.watch" (fun () -> watch c id) in
            let events = span "server.decode" (fun () -> decode frames) in
            let last = match List.rev frames with f :: _ -> f | [] -> "" in
            (match List.rev events with
             | Ok (Protocol.Ev_done { result; _ }) :: _ ->
               if job.cold then begin
                 if cached then fail ~mismatch:true "cold variant served from cache"
                 else if not (same_verdicts result (Hashtbl.find w.verdicts job.key)) then
                   fail ~mismatch:true ("cold variant verdicts differ from " ^ job.key)
               end
               else if not (cached && String.equal last (Hashtbl.find w.frames job.key)) then
                 fail ~mismatch:true ("warm done frame differs for " ^ job.key)
             | _ -> fail ~mismatch:false ("job did not complete: " ^ last));
            String.length last)
    in
    let ms = (now () -. t0) *. 1e3 in
    locked (fun () ->
        incr completed;
        if !completed mod rss_step = 0 then rss := (float_of_int !completed, rss_kb d) :: !rss);
    { key = job.key; cold = job.cold; ms; traced; frame_bytes }
  in
  let before = stats d in
  let conns = Array.init 2 (fun _ -> connect d.socket) in
  let clock = Machine.clock () in
  let windows = ref [] in
  Fun.protect ~finally:(fun () -> Array.iter (fun c -> Net.close_noerr c.fd) conns) (fun () ->
      for wi = 0 to (n / window) - 1 do
        let lo = wi * window and hi = (wi + 1) * window in
        let mine = Array.make 2 [] in
        let worker t () =
          for i = lo to hi - 1 do
            if i mod 2 = t then
              match one conns.(t) i with
              | s -> mine.(t) <- s :: mine.(t)
              | exception e -> fail ~mismatch:false (Printexc.to_string e)
          done
        in
        let (), span =
          Machine.measure clock (fun () ->
              List.iter Thread.join (List.init 2 (fun t -> Thread.create (worker t) ())))
        in
        windows := (span, Array.to_list mine |> List.concat) :: !windows
      done);
  Machine.finish clock;
  (* jobs per second of the median window *)
  let window_rate time =
    float_of_int window /. Stats.median (List.map (fun (w, _) -> time w) !windows)
  in
  let timed_scaled =
    List.fold_left (fun acc (w, _) -> acc +. Machine.scaled clock w) 0. !windows
  in
  (* (raw, scaled) samples: a window's jobs share its scale factor *)
  let samples =
    List.concat_map
      (fun (w, ss) ->
        let factor = Machine.scaled clock w /. Machine.raw w in
        List.map (fun s -> (s, { s with ms = s.ms *. factor })) ss)
      !windows
  in
  let after = stats d in
  let peak = peak_rss_mb ~pid:d.pid () in
  let warm = List.filter (fun (s, _) -> not s.cold) samples in
  let cold = List.filter_map (fun (_, s) -> if s.cold then Some s.ms else None) samples in
  let typical pick =
    let per_app = Hashtbl.create 8 in
    List.iter (fun p -> let s = pick p in add_sample per_app s.key s.ms) warm;
    typical_ms per_app
  in
  let scaled_warm_ms = List.map (fun (_, s) -> s.ms) warm in
  let layer =
    if not trace then []
    else begin
      let spans = Spans.all () in
      let med name = Stats.median (Spans.durations_ms name spans) in
      let dc name = float_of_int (counter after name - counter before name) in
      let dh f = f after "server.job_wall_ns" - f before "server.job_wall_ns" in
      let cold_jobs = dh hist_count and cold_ns = dh hist_sum in
      let traced_ms b =
        Stats.median (List.filter_map (fun (_, s) -> if s.traced = b then Some s.ms else None) warm)
      in
      let frames = List.map (fun (s, _) -> float_of_int s.frame_bytes) warm in
      [ m "server.submit_rtt_ms" (med "server.submit") "ms";
        m "server.watch_rtt_ms" (med "server.watch") "ms";
        m "server.result_decode_ms" (med "server.decode") "ms";
        m "server.done_frame_kb"
          (List.fold_left ( +. ) 0. frames /. float_of_int (max 1 (List.length frames)) /. 1024.)
          "KB";
        m "server.warm_tail_ms"
          (match Stats.tail_percentile scaled_warm_ms with Some (_, v) -> v | None -> 0.)
          "ms";
        m "server.cold_p50_ms" (Stats.median cold) "ms";
        m "server.retained_kb_per_job"
          (Stats.slope (List.map (fun (x, y) -> (x, float_of_int y)) !rss))
          "KB";
        m "server.cache_result_hits" (dc "server.cache_result_hits") "count";
        m "server.cache_result_misses" (dc "server.cache_result_misses") "count";
        m "campaign.cold_job_ms"
          (if cold_jobs = 0 then 0. else float_of_int cold_ns /. float_of_int cold_jobs /. 1e6)
          "ms";
        m "unattributed_ratio"
          (Spans.unattributed_ratio
             ~roots:(List.filter (fun s -> s.Spans.name = "serve-mixed.op") spans)
             spans)
          "ratio";
        m "obs.trace_overhead_ratio" (traced_ms true /. traced_ms false) "ratio" ]
    end
  in
  { correct = !mismatched = 0;
    attempted = n;
    failed = !failed;
    setup_s = setup.scaled;
    e2e =
      [ m "ops_per_s" (window_rate (Machine.scaled clock)) "1/s";
        m "p50_ms" (typical snd) "ms";
        m "peak_rss_mb" peak "MB" ];
    layer;
    info =
      [ ("raw_ops_per_s", Printf.sprintf "%.2f" (window_rate Machine.raw));
        ("overall_ops_per_s", Printf.sprintf "%.2f" (float_of_int n /. timed_scaled));
        ("raw_p50_ms", Printf.sprintf "%.3f" (typical fst));
        ("raw_setup_s", Printf.sprintf "%.5f" setup.raw);
        ("jobs", string_of_int n);
        ("cold_jobs", string_of_int (List.length cold));
        ( "warm_tail",
          match Stats.tail_percentile scaled_warm_ms with
          | Some (p, v) -> Printf.sprintf "p%g=%.3fms" p v
          | None -> "none" ) ] }
