(* The failatom daemon: a long-running detection service over a
   Unix-domain socket.

   Layout:

   - One {b accept thread} owns the listening socket; the loop itself
     lives in {!Net} and polls with a
     short [select] timeout so a stop request is honoured promptly.

   - {b Connection threads} speak the NDJSON protocol ({!Protocol}):
     read a request line, write a response line.  [watch] turns the
     connection into an event stream until the watched job reaches a
     terminal state.  Connection threads never execute detection work;
     they only enqueue jobs and observe them.

   - {b Executor threads} ([workers] of them) pop jobs off a FIFO queue
     and run them.  Detection and campaign jobs go through
     {!Campaign.run} (a detect job is a campaign with one worker, which
     produces a result bitwise-identical to {!Detect.run}: on a
     sequential program its worker domain walks the uninjected run once
     and forks every injected run at its point); mask jobs
     additionally compute the wrap targets and the corrected program
     from the same detection result.  Compiled images come from the
     content-addressed {!Cache}, so resubmitting a known program skips
     compilation and weaving; a finished job's result is stored back
     under its full fingerprint, so resubmitting a whole known job is
     answered at submit time without touching the queue at all.

   - {b The warm path is allocation-light}: the submit handler resolves
     the program digest through the cache's source-key memo (no parse
     for a known source), and finished results carry their rendered
     NDJSON text, so a cache hit splices pre-rendered bytes into the
     reply instead of re-serializing the result per hit, and its done
     event is one of the cache entry's two shared warm frames, so a
     finished warm job retains no copy of the result.  A request with
     [log = false] gets the log-less frame (under 1KB instead of up to
     ~200KB) and can fetch the run log afterwards with the [log] op.
     Event frames are rendered once when appended, not once per
     watcher.

   - {b Admission control}: a full queue rejects new submissions
     instead of accepting unbounded work; a per-job wall-clock deadline
     ([job_timeout_s]) and per-run timeout ([run_timeout_s]) bound how
     long any single job can hold an executor.  [shutdown] (the request
     or SIGTERM/SIGINT) drains gracefully: new work is rejected, queued
     jobs are cancelled, running jobs finish — and every completed run
     they journalled is already fsynced by {!Journal.append}.

   - {b Bounded memory}: queued and running jobs stay in the job table
     until they finish; finished jobs are kept in a {!Bounded} FIFO of
     the newest [max_finished_jobs], so a long-lived daemon does not
     grow without bound.  An evicted id answers "unknown job".

   All shared state — the job tables, the queue, each job's event
   buffer — is guarded by one mutex; one condition variable wakes both
   executors (queue non-empty, drain) and watchers (new events).  The
   cache has its own finer-grained locking and is never touched while
   the server mutex is held.  The executors call {!Campaign.run}, which
   runs every detection run on worker domains of its own; the server
   threads themselves are systhreads, interleaved on the main domain,
   which is fine because they only block on I/O and the condition
   variable — except for a cold job's set-up (compile, analysis,
   profile), which {!Campaign.run} does on the executor thread. *)

open Failatom_core
open Failatom_minilang
open Failatom_apps
module Campaign = Failatom_campaign.Campaign
module Progress = Failatom_campaign.Progress
module Obs = Failatom_obs.Obs
module Prod = Failatom_prod

let m_accepted = Obs.counter "server.jobs_accepted"
let m_rejected = Obs.counter "server.jobs_rejected"
let m_completed = Obs.counter "server.jobs_completed"
let m_failed = Obs.counter "server.jobs_failed"
let m_cancelled = Obs.counter "server.jobs_cancelled"
let m_timed_out = Obs.counter "server.jobs_timed_out"
let g_queue_depth = Obs.gauge "server.queue_depth"
let h_job_wall = Obs.histogram "server.job_wall_ns"

let max_finished_jobs = 1024

type config = {
  socket_path : string;
  workers : int;  (* executor threads *)
  max_queue : int;  (* admission bound on queued jobs *)
  job_timeout_s : float option;  (* per-job wall-clock deadline *)
  run_timeout_s : float option;  (* default per-run timeout *)
  jobs_per_job : int;  (* clamp on a campaign request's worker domains *)
}

let default_config ~socket_path =
  { socket_path;
    workers = 2;
    max_queue = 64;
    job_timeout_s = None;
    run_timeout_s = None;
    jobs_per_job = Campaign.default_jobs () }

(* A validated submission: everything except the parse resolved at
   submit time.  [p_program] is a memoized thunk — when the digest came
   from the cache's source memo the parse is deferred to the executor,
   so a warm cache hit never parses at all. *)
(* Validated produce-mode parameters: the plan parsed and matched
   against the program digest at submit time, so a stale plan is a
   clean protocol error rather than a job failure. *)
type produce = {
  pr_plan : Prod.Plan.t;
  pr_perturb : Prod.Produce.perturb_spec option;
  pr_times : int;
}

type prepared = {
  p_mode : Protocol.mode;
  p_program : unit -> Ast.program;
  p_digest : string;
  p_flavor : Detect.flavor;
  p_config : Config.t;
  p_jobs : int;
  p_run_timeout_s : float option;
  p_produce : produce option;  (* Some iff p_mode = Produce *)
  p_key : string;  (* result-cache fingerprint *)
  p_log : bool;  (* done frame and status reply carry the run log *)
}

type job_state =
  | Queued
  | Running
  | Done of Cache.entry * bool  (* result, served from cache *)
  | Failed of string
  | Cancelled
  | Timed_out

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"
  | Timed_out -> "timed_out"

type job = {
  id : string;
  prepared : prepared;
  mutable state : job_state;
  mutable frames_rev : string list;
      (* pre-rendered event frames, newest first: rendered once at
         append time, written verbatim by every watcher *)
  mutable n_frames : int;
  mutable terminal : bool;  (* a terminal frame has been appended *)
  mutable cancel_requested : bool;
      (* read by campaign workers without the server mutex: a benign
         single-word race, the poll just sees it one run later *)
  mutable deadline_ns : int;  (* 0 = none; armed when the job starts *)
  mutable last_tick_ns : int;  (* tick-event throttle *)
}

type t = {
  config : config;
  cache : Cache.t;
  mutex : Mutex.t;
  cond : Condition.t;
      (* one condition for everything: executors wait for queue/drain,
         watchers wait for job events; every state change broadcasts *)
  jobs : (string, job) Hashtbl.t;  (* queued and running *)
  finished : job Bounded.t;  (* terminal, the newest [max_finished_jobs] *)
  queue : job Queue.t;
  mutable next_id : int;
  mutable draining : bool;
  stop : bool Atomic.t;  (* polled by the accept loop *)
  stop_signal : bool Atomic.t;  (* set from signal handlers only *)
  mutable threads : Thread.t list;  (* accept + executors *)
  obs_was_enabled : bool;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let event_frame ev =
  match Protocol.event_to_json ev with
  | Json.Obj fields -> Json.Obj (("ok", Json.Bool true) :: fields)
  | _ -> assert false

let is_terminal_event = function
  | Protocol.Ev_done _ | Protocol.Ev_error _ | Protocol.Ev_cancelled
  | Protocol.Ev_timeout ->
    true
  | Protocol.Ev_state _ | Protocol.Ev_tick _ | Protocol.Ev_warning _ -> false

(* Mutex held.  A terminal frame moves the job to the finished table,
   where it may later be evicted; watchers already holding it keep
   reading its frames. *)
let append_frame_locked t job ~terminal frame =
  job.frames_rev <- frame :: job.frames_rev;
  job.n_frames <- job.n_frames + 1;
  if terminal then begin
    job.terminal <- true;
    Hashtbl.remove t.jobs job.id;
    ignore (Bounded.add t.finished job.id job)
  end;
  Condition.broadcast t.cond

(* Mutex held. *)
let find_job_locked t id =
  match Hashtbl.find_opt t.jobs id with
  | Some _ as job -> job
  | None -> Bounded.find t.finished id

(* Mutex held. *)
let append_event_locked t job ev =
  append_frame_locked t job ~terminal:(is_terminal_event ev)
    (Json.to_string (event_frame ev))

(* ------------------------------------------------------------------ *)
(* Request validation                                                  *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let method_ids what names =
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      match Method_id.of_string name with
      | Ok id -> all (id :: acc) rest
      | Error _ -> Error (Printf.sprintf "%s: %S is not a Class.method id" what name))
  in
  all [] names

let prepare_request t (r : Protocol.job_request) : (prepared, string) result =
  let* source, source_key, default_flavor, what =
    match r.Protocol.program with
    | Protocol.App name -> (
      match Registry.find name with
      | None ->
        Error (Printf.sprintf "unknown application %S (see `failatom apps`)" name)
      | Some app ->
        Ok
          ( app.Registry.source,
            "app:" ^ name,
            Harness.flavor_of_suite app.Registry.suite,
            "app " ^ name ))
    | Protocol.Inline src ->
      Ok
        ( src,
          "src:" ^ Digest.to_hex (Digest.string src),
          Detect.Source_weaving,
          "inline program" )
  in
  (* Memoized parse: at most one parse per request, none for a source
     the cache has already digested. *)
  let parsed = ref None in
  let parse_now () =
    match !parsed with
    | Some program -> program
    | None ->
      (* liberal: accept already-woven/corrected programs too *)
      let program = Minilang.parse ~allow_reserved:true source in
      parsed := Some program;
      program
  in
  let* digest =
    match Cache.digest_find t.cache ~source_key with
    | Some d -> Ok d
    | None -> (
      match parse_now () with
      | program ->
        let d = Minilang.program_digest program in
        Cache.digest_learn t.cache ~source_key d;
        Ok d
      | exception e ->
        Error (Printf.sprintf "%s: %s" what (Printexc.to_string e)))
  in
  let* exception_free = method_ids "exception_free" r.Protocol.exception_free in
  let* do_not_wrap = method_ids "do_not_wrap" r.Protocol.do_not_wrap in
  (* Reject unknown schedule specs at submit time (clean protocol error)
     rather than as a job failure inside an executor. *)
  let* schedules =
    let rec check = function
      | [] -> Ok ()
      | s :: rest -> (
        match Failatom_runtime.Sched.policy_of_string s with
        | Some _ -> check rest
        | None -> Error ("unknown schedule spec " ^ s))
    in
    let* () = check r.Protocol.schedules in
    Ok
      (match r.Protocol.schedules with
       | [] -> Config.default.Config.schedules
       | l -> l)
  in
  let flavor = Option.value ~default:default_flavor r.Protocol.flavor in
  let config =
    { Config.default with
      Config.prune = r.Protocol.prune;
      schedules;
      wrap_policy =
        (if r.Protocol.wrap_all then Config.Wrap_all_non_atomic else Config.Wrap_pure);
      exception_free;
      do_not_wrap }
  in
  let jobs =
    match r.Protocol.mode with
    | Protocol.Detect | Protocol.Mask | Protocol.Produce -> 1
    | Protocol.Campaign ->
      let requested = Option.value ~default:t.config.jobs_per_job r.Protocol.jobs in
      max 1 (min requested t.config.jobs_per_job)
  in
  let run_timeout_s =
    match r.Protocol.run_timeout_s with
    | Some _ as s -> s
    | None -> t.config.run_timeout_s
  in
  let* p_produce =
    match r.Protocol.mode with
    | Protocol.Detect | Protocol.Campaign | Protocol.Mask -> Ok None
    | Protocol.Produce ->
      let* plan_text =
        match r.Protocol.plan with
        | Some text -> Ok text
        | None -> Error "produce mode requires a plan"
      in
      let* pr_plan = Prod.Plan.of_string plan_text in
      (* Stale plans are refused at submit time: a plan computed for a
         different program must not arm wrappers. *)
      let* () = Prod.Plan.validate pr_plan ~program_digest:digest in
      let* pr_perturb =
        match Option.value ~default:0 r.Protocol.perturb_rate with
        | 0 -> Ok None
        | rate when rate < 0 || rate > 1000 ->
          Error "perturb_rate must be in 0..1000"
        | rate ->
          let* point =
            match r.Protocol.perturb_point with
            | None -> Ok Prod.Perturb.At_exit
            | Some name -> (
              match Prod.Perturb.point_of_name name with
              | Some p -> Ok p
              | None -> Error (Printf.sprintf "unknown perturbation point %S" name))
          in
          Ok
            (Some
               { Prod.Produce.seed = Option.value ~default:1 r.Protocol.perturb_seed;
                 rate_per_mille = rate;
                 max_fires = r.Protocol.perturb_max;
                 point;
                 fallback_exceptions = [] })
      in
      Ok
        (Some
           { pr_plan;
             pr_perturb;
             pr_times = max 1 (Option.value ~default:1 r.Protocol.times) })
  in
  Ok
    { p_mode = r.Protocol.mode;
      p_program = parse_now;
      p_digest = digest;
      p_flavor = flavor;
      p_config = config;
      p_jobs = jobs;
      p_run_timeout_s = run_timeout_s;
      p_produce;
      p_key =
        Cache.result_key ~program_digest:digest ~mode:r.Protocol.mode ~flavor
          ~config ~run_timeout_s;
      p_log = r.Protocol.log }

(* ------------------------------------------------------------------ *)
(* Job execution                                                       *)
(* ------------------------------------------------------------------ *)

let build_result ~mode ~flavor ~cfg (res : Detect.result)
    (summary : Progress.summary) : Protocol.job_result =
  let cls = Classify.classify ~exception_free:cfg.Config.exception_free res in
  let counts = Classify.method_counts cls in
  let non_atomic =
    List.filter_map
      (fun (rep : Classify.method_report) ->
        match rep.Classify.verdict with
        | Classify.Atomic -> None
        | v -> Some (Method_id.to_string rep.Classify.id, Classify.verdict_name v))
      (Classify.reports cls)
  in
  { Protocol.r_mode = mode;
    r_flavor = Detect.flavor_wire_name flavor;
    r_injections = res.Detect.injections;
    r_transparent = res.Detect.transparent;
    r_non_atomic = non_atomic;
    r_counts =
      { Protocol.atomic = counts.Classify.atomic;
        conditional = counts.Classify.conditional;
        pure = counts.Classify.pure };
    r_log = Run_log.save res;
    r_wrapped = [];
    r_corrected = None;
    r_summary =
      Some
        { Protocol.workers = summary.Progress.workers;
          executed = summary.Progress.executed;
          reused = summary.Progress.reused;
          discarded = summary.Progress.discarded;
          synthesized = summary.Progress.synthesized;
          wall_s = summary.Progress.wall_clock_s };
    r_resilience = None }

(* A produce job's result is built from the plan (the verdicts are the
   detection's, carried over) plus the fresh scorecard.  [transparent]
   reports whether every canary validation passed. *)
let build_produce_result (pr : produce) (scorecard : Prod.Scorecard.t) :
    Protocol.job_result =
  let plan = pr.pr_plan in
  let counts =
    List.fold_left
      (fun (c : Protocol.counts) (m : Prod.Plan.meth) ->
        match m.Prod.Plan.pm_verdict with
        | Classify.Atomic -> { c with Protocol.atomic = c.Protocol.atomic + 1 }
        | Classify.Conditional_non_atomic ->
          { c with Protocol.conditional = c.Protocol.conditional + 1 }
        | Classify.Pure_non_atomic -> { c with Protocol.pure = c.Protocol.pure + 1 })
      { Protocol.atomic = 0; conditional = 0; pure = 0 }
      plan.Prod.Plan.methods
  in
  let non_atomic =
    List.filter_map
      (fun (m : Prod.Plan.meth) ->
        match m.Prod.Plan.pm_verdict with
        | Classify.Atomic -> None
        | v ->
          Some (Method_id.to_string m.Prod.Plan.pm_id, Classify.verdict_name v))
      plan.Prod.Plan.methods
  in
  { Protocol.r_mode = Protocol.Produce;
    r_flavor = plan.Prod.Plan.flavor;
    r_injections = plan.Prod.Plan.injections;
    r_transparent = Prod.Scorecard.failed scorecard = 0;
    r_non_atomic = non_atomic;
    r_counts = counts;
    r_log = "";
    r_wrapped = List.map Method_id.to_string plan.Prod.Plan.targets;
    r_corrected = None;
    r_summary = None;
    r_resilience = Some (Prod.Scorecard.to_json scorecard) }

let execute t (job : job) =
  let p = job.prepared in
  let report = function
    | Progress.Tick { completed; needed; injections; _ } ->
      let now = Obs.now_ns () in
      locked t (fun () ->
          if now - job.last_tick_ns >= 50_000_000 then begin
            job.last_tick_ns <- now;
            append_event_locked t job
              (Protocol.Ev_tick { completed; needed; injections })
          end)
    | Progress.Warning msg ->
      locked t (fun () -> append_event_locked t job (Protocol.Ev_warning msg))
    | Progress.Started _ | Progress.Finished _ -> ()
  in
  let cancel () =
    job.cancel_requested
    || (job.deadline_ns > 0 && Obs.now_ns () > job.deadline_ns)
  in
  let t0 = Obs.now_ns () in
  let outcome =
    try
      if cancel () then raise Campaign.Cancelled;
      let program = p.p_program () in
      match (p.p_mode, p.p_produce) with
      | Protocol.Produce, Some pr -> (
        (* No detection: arm straight from the (already-validated)
           plan and run the workload under the armed wrappers. *)
        match
          Prod.Produce.run ?perturb:pr.pr_perturb
            ~times:pr.pr_times ~plan:pr.pr_plan program
        with
        | Error msg -> Error (`Failed msg)
        | Ok { Prod.Produce.scorecard; runs } ->
          List.iteri
            (fun i (r : Prod.Produce.run_report) ->
              match r.Prod.Produce.escaped with
              | None -> ()
              | Some cls ->
                locked t (fun () ->
                    append_event_locked t job
                      (Protocol.Ev_warning
                         (Printf.sprintf "run %d: %s escaped main" (i + 1) cls))))
            runs;
          Ok (build_produce_result pr scorecard))
      | Protocol.Produce, None ->
        (* prepare_request always pairs Produce with parameters *)
        Error (`Failed "produce job without production parameters")
      | (Protocol.Detect | Protocol.Campaign | Protocol.Mask), _ ->
        let images =
          Cache.images t.cache ~program_digest:p.p_digest ~flavor:p.p_flavor
            program
        in
        let res, summary =
          Campaign.run ~config:p.p_config ~flavor:p.p_flavor
            ~plain:images.Cache.plain ~compiled:images.Cache.compiled
            ?run_timeout_s:p.p_run_timeout_s ~cancel ~jobs:p.p_jobs ~report
            program
        in
        let base = build_result ~mode:p.p_mode ~flavor:p.p_flavor ~cfg:p.p_config res summary in
        let result =
          match p.p_mode with
          | Protocol.Mask ->
            (* Same detection result, extended with the masking step:
               wrap targets by the configured policy, and the corrected
               program P_C. *)
            let cls =
              Classify.classify ~exception_free:p.p_config.Config.exception_free res
            in
            let targets = Mask.targets p.p_config cls in
            let corrected = Mask.corrected_program ~targets program in
            { base with
              Protocol.r_wrapped =
                List.map Method_id.to_string (Method_id.Set.elements targets);
              r_corrected = Some (Pretty.program_to_string corrected) }
          | Protocol.Detect | Protocol.Campaign | Protocol.Produce -> base
        in
        Ok result
    with
    | Campaign.Cancelled ->
      if job.deadline_ns > 0 && Obs.now_ns () > job.deadline_ns then Error `Timeout
      else Error `Cancelled
    | Detect.Detection_error msg -> Error (`Failed msg)
    | Campaign.Campaign_error msg -> Error (`Failed msg)
    | e -> Error (`Failed (Printexc.to_string e))
  in
  Obs.observe h_job_wall (Obs.now_ns () - t0);
  match outcome with
  | Ok result ->
    (* Render + spill outside the server mutex; only the table insert
       and the event append happen under it. *)
    let entry =
      match p.p_mode with
      | Protocol.Produce ->
        (* Produce results carry wall-clock timing histograms — never
           cached, so every resubmission re-runs the workload fresh. *)
        Cache.entry result
      | Protocol.Detect | Protocol.Campaign | Protocol.Mask ->
        Cache.store_result t.cache p.p_key result
    in
    locked t (fun () ->
        job.state <- Done (entry, false);
        Obs.incr m_completed;
        append_frame_locked t job ~terminal:true
          (Cache.done_frame ~cached:false (Cache.rendered entry ~log:p.p_log)))
  | Error `Cancelled ->
    locked t (fun () ->
        job.state <- Cancelled;
        Obs.incr m_cancelled;
        append_event_locked t job Protocol.Ev_cancelled)
  | Error `Timeout ->
    locked t (fun () ->
        job.state <- Timed_out;
        Obs.incr m_timed_out;
        append_event_locked t job Protocol.Ev_timeout)
  | Error (`Failed msg) ->
    locked t (fun () ->
        job.state <- Failed msg;
        Obs.incr m_failed;
        append_event_locked t job (Protocol.Ev_error msg))

let executor t () =
  let rec loop () =
    let job =
      locked t (fun () ->
          let rec take () =
            match Queue.take_opt t.queue with
            | Some job -> (
              Obs.set_gauge g_queue_depth (Queue.length t.queue);
              match job.state with
              | Queued ->
                job.state <- Running;
                (match t.config.job_timeout_s with
                 | Some s ->
                   job.deadline_ns <- Obs.now_ns () + int_of_float (s *. 1e9)
                 | None -> ());
                append_event_locked t job (Protocol.Ev_state "running");
                Some job
              | _ -> take () (* cancelled while queued *))
            | None ->
              if t.draining then None
              else begin
                Condition.wait t.cond t.mutex;
                take ()
              end
          in
          take ())
    in
    match job with
    | Some job ->
      execute t job;
      loop ()
    | None -> ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let new_job t prepared =
  t.next_id <- t.next_id + 1;
  let job =
    { id = Printf.sprintf "j%d" t.next_id;
      prepared;
      state = Queued;
      frames_rev = [];
      n_frames = 0;
      terminal = false;
      cancel_requested = false;
      deadline_ns = 0;
      last_tick_ns = 0 }
  in
  Hashtbl.replace t.jobs job.id job;
  job

let render = Json.to_string

(* Replies that embed a finished result are spliced from the cached
   rendering (same field order as the [Json] path, byte-identical). *)
let done_reply ~job_id ~cached ~log entry =
  Printf.sprintf
    "{\"ok\":true,\"job\":%s,\"state\":\"done\",\"cached\":%b,\"result\":%s}"
    (Json.to_string (Json.Str job_id))
    cached (Cache.rendered entry ~log)

let handle_submit t req =
  match prepare_request t req with
  | Error msg ->
    Obs.incr m_rejected;
    render (Protocol.error msg)
  | Ok p -> (
    (* The result lookup may deserialize from the durable tier — never
       under the server mutex.  Produce jobs never consult it: their
       results embed fresh timing data, so a warm hit would replay a
       stale scorecard. *)
    match
      (match p.p_mode with
       | Protocol.Produce -> None
       | Protocol.Detect | Protocol.Campaign | Protocol.Mask ->
         Cache.find_result t.cache p.p_key)
    with
    | Some entry ->
      locked t (fun () ->
          if t.draining then begin
            Obs.incr m_rejected;
            render (Protocol.error "server is shutting down")
          end
          else begin
            (* Warm hit: the job is born finished — no queue, no
               compile, no runs.  The result bytes are the original
               job's, so the [log] text is bitwise-identical. *)
            let job = new_job t p in
            job.state <- Done (entry, true);
            append_frame_locked t job ~terminal:true
              (Cache.warm_frame entry ~log:p.p_log);
            Obs.incr m_accepted;
            render
              (Protocol.ok
                 [ ("job", Json.Str job.id);
                   ("state", Json.Str "done");
                   ("cached", Json.Bool true) ])
          end)
    | None ->
      locked t (fun () ->
          if t.draining then begin
            Obs.incr m_rejected;
            render (Protocol.error "server is shutting down")
          end
          else if Queue.length t.queue >= t.config.max_queue then begin
            Obs.incr m_rejected;
            render
              (Protocol.error
                 (Printf.sprintf "queue full (%d jobs queued)" t.config.max_queue))
          end
          else begin
            let job = new_job t p in
            append_event_locked t job (Protocol.Ev_state "queued");
            Queue.push job t.queue;
            Obs.set_gauge g_queue_depth (Queue.length t.queue);
            Obs.incr m_accepted;
            Condition.broadcast t.cond;
            render
              (Protocol.ok
                 [ ("job", Json.Str job.id);
                   ("state", Json.Str "queued");
                   ("cached", Json.Bool false) ])
          end))

let handle_status t id =
  locked t (fun () ->
      match find_job_locked t id with
      | None -> render (Protocol.error ("unknown job " ^ id))
      | Some job -> (
        let base =
          [ ("job", Json.Str job.id); ("state", Json.Str (state_name job.state)) ]
        in
        match job.state with
        | Done (entry, cached) ->
          done_reply ~job_id:job.id ~cached ~log:job.prepared.p_log entry
        | Failed msg -> render (Protocol.ok (base @ [ ("error", Json.Str msg) ]))
        | Queued | Running | Cancelled | Timed_out -> render (Protocol.ok base)))

(* The log is looked up under the mutex and rendered outside it. *)
let handle_log t id =
  let found =
    locked t (fun () ->
        match find_job_locked t id with
        | None -> Error ("unknown job " ^ id)
        | Some { state = Done (entry, _); _ } ->
          Ok entry.Cache.e_result.Protocol.r_log
        | Some job ->
          Error (Printf.sprintf "job %s is %s: no run log" id (state_name job.state)))
  in
  render
    (match found with
     | Ok log -> Protocol.ok [ ("job", Json.Str id); ("log", Json.Str log) ]
     | Error msg -> Protocol.error msg)

let handle_cancel t id =
  locked t (fun () ->
      match find_job_locked t id with
      | None -> Protocol.error ("unknown job " ^ id)
      | Some job ->
        (match job.state with
         | Queued ->
           (* The executor skips non-Queued entries when it pops. *)
           job.cancel_requested <- true;
           job.state <- Cancelled;
           Obs.incr m_cancelled;
           append_event_locked t job Protocol.Ev_cancelled
         | Running -> job.cancel_requested <- true
         | Done _ | Failed _ | Cancelled | Timed_out -> () (* idempotent *));
        Protocol.ok [ ("job", Json.Str id) ])

let handle_stats t =
  let images, results = Cache.stats t.cache in
  Protocol.ok
    [ ("metrics", Json.Str (Obs.to_json (Obs.snapshot ())));
      ("cached_images", Json.Int images);
      ("cached_results", Json.Int results) ]

let initiate_drain t =
  Atomic.set t.stop true;
  locked t (fun () ->
      if not t.draining then begin
        t.draining <- true;
        Queue.iter
          (fun job ->
            match job.state with
            | Queued ->
              job.state <- Cancelled;
              Obs.incr m_cancelled;
              append_event_locked t job Protocol.Ev_cancelled
            | _ -> ())
          t.queue;
        Queue.clear t.queue;
        Obs.set_gauge g_queue_depth 0;
        Condition.broadcast t.cond
      end)

(* ------------------------------------------------------------------ *)
(* The protocol loop of one connection                                 *)
(* ------------------------------------------------------------------ *)

let handle_watch t fd id =
  let job = locked t (fun () -> find_job_locked t id) in
  match job with
  | None -> Net.write_line fd (render (Protocol.error ("unknown job " ^ id)))
  | Some job ->
    let cursor = ref 0 in
    let finished = ref false in
    while not !finished do
      let batch =
        locked t (fun () ->
            while job.n_frames <= !cursor do
              Condition.wait t.cond t.mutex
            done;
            let fresh = job.n_frames - !cursor in
            cursor := job.n_frames;
            if job.terminal && !cursor = job.n_frames then finished := true;
            List.rev (List.filteri (fun i _ -> i < fresh) job.frames_rev))
      in
      List.iter (Net.write_line fd) batch
    done

let handle_connection t fd =
  let send_raw line = Net.write_line fd line in
  let send j = send_raw (render j) in
  (try
     send Protocol.greeting;
     let reader = Net.reader fd in
     let rec loop () =
       match Net.read_line reader with
       | None -> ()
       | Some line ->
         (match
            try Ok (Json.of_string line)
            with Json.Parse_error msg -> Error ("bad JSON: " ^ msg)
          with
          | Error msg -> send (Protocol.error msg)
          | Ok j -> (
            match Protocol.request_of_json j with
            | Error msg -> send (Protocol.error msg)
            | Ok (Protocol.Submit req) -> send_raw (handle_submit t req)
            | Ok (Protocol.Status id) -> send_raw (handle_status t id)
            | Ok (Protocol.Watch id) -> handle_watch t fd id
            | Ok (Protocol.Cancel id) -> send (handle_cancel t id)
            | Ok (Protocol.Log id) -> send_raw (handle_log t id)
            | Ok Protocol.Stats -> send (handle_stats t)
            | Ok Protocol.Shutdown ->
              send (Protocol.ok []);
              initiate_drain t));
         loop ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  Net.close_noerr fd

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?cache config =
  let obs_was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  (* A client that disconnects mid-write must surface as EPIPE, not
     kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Net.listen ~socket_path:config.socket_path in
  let t =
    { config;
      cache = (match cache with Some c -> c | None -> Cache.create ());
      mutex = Mutex.create ();
      cond = Condition.create ();
      jobs = Hashtbl.create 64;
      finished = Bounded.create max_finished_jobs;
      queue = Queue.create ();
      next_id = 0;
      draining = false;
      stop = Atomic.make false;
      stop_signal = Atomic.make false;
      threads = [];
      obs_was_enabled }
  in
  let accept_thread =
    Thread.create
      (fun () ->
        Net.accept_loop
          ~stop:(fun () -> Atomic.get t.stop)
          ~tick:(fun () -> if Atomic.get t.stop_signal then initiate_drain t)
          fd (handle_connection t))
      ()
  in
  let executors =
    List.init (max 1 config.workers) (fun _ -> Thread.create (executor t) ())
  in
  t.threads <- accept_thread :: executors;
  t

let cache t = t.cache
let shutdown t = initiate_drain t

let wait t =
  List.iter Thread.join t.threads;
  (try Unix.unlink t.config.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  Obs.set_enabled t.obs_was_enabled

(* CLI entry: serve until a shutdown request or a termination signal.
   Signal handlers only flip an atomic — the accept loop (which polls
   it every 200ms) performs the actual drain, so no lock is ever taken
   from a signal-handler context. *)
let run ?cache config =
  let t = start ?cache config in
  let request_stop _ = Atomic.set t.stop_signal true in
  let install signal =
    try ignore (Sys.signal signal (Sys.Signal_handle request_stop))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  install Sys.sigterm;
  install Sys.sigint;
  wait t
