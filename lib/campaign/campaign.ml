(* The parallel, resumable detection-campaign engine.

   Semantically this is exactly {!Detect.run}: execute the injector with
   InjectionPoint = 1, 2, 3, … until a run completes with no injection,
   then assemble the runs into a {!Detect.result}.  The difference is
   how the runs are executed:

   - {b Parallel}: [jobs] OCaml 5 domains share the runs.  Each worker
     instantiates its own VM from the shared image and walks the
     uninjected run once ({!Detect.walk_with}).
     At each injection point — under coalescing, at each blindness-group
     head — it asks the {!Scheduler} whether the point is still
     unclaimed and not on file; if so it claims the point and runs the
     injected run there, otherwise it walks on.  The run is forked off
     the walk, exactly as in {!Detect.run}; with [run_timeout_s] the
     budget covers the injected suffix from its fork point, not the
     shared prefix.  All
     walks visit the same points in the same order, so the workers split
     the runs between them with no speculation and no discarded runs.
     The first walk to finish files the probe, which fixes the frontier;
     a worker with nothing left to claim stops its walk.  The walk is
     also the point census.  Each extra worker walks the whole
     uninjected run again, so extra walks pay only up to the number of
     cores, and only for programs with many points (EXPERIMENTS.md,
     "Several walks per campaign"): a campaign runs at most
     [Domain.recommended_domain_count ()] workers, whatever [jobs]
     asks.  Concurrent programs walk each schedule phase this way,
     forking with the scheduler's state ({!Sched.fork}).

     The merged result — run records, order, injection count,
     transparency verdict — is identical to the sequential loop's, and
     so are the errors: a campaign reports the failure of the least
     failing threshold (under coalescing, a failure of the census or
     [max_runs] first), as the sequential walk would.

   - {b Resumable}: with [~journal], every record is appended to an
     on-disk journal the moment it is filed.  A killed campaign
     re-invoked with [~resume:true] adopts the journaled runs: walks
     pass their points without forking (a coalesced group only when
     every member is on file), so resuming a complete journal executes
     nothing.  The journal stores each run's output, so even the
     transparency check of a resumed campaign uses the genuine probe
     output.

   - {b Cancellable}: [cancel] is polled at every point a walk offers,
     so a cancelled campaign stops after at most one run per worker.

   - {b Observable}: a [report] callback receives one event per state
     change; {!Progress.reporter} turns them into throughput/ETA lines
     and a final summary.

   Concurrent programs add a schedule axis, exactly as in {!Detect.run}:
   every spec in [config.schedules] gets its own complete campaign phase
   (own scheduler, own frontier, own per-schedule uninjected baseline),
   run one after the other — the parallelism lives inside a phase,
   across thresholds.  The journal holds all phases' runs mixed; on
   resume they are partitioned by each record's schedule spec
   ([Marks.sched], [None] meaning coop), so every phase adopts exactly
   its own prior work.

   Shared state during a phase is the scheduler, the journal writer and
   the failure cell, all guarded by one mutex; workers only hold it to
   claim and file, never while executing a run.  The set-up
   ({!Detect.set_up}: analysis, profile, the compiled program image) is
   done once on the spawning domain and shared read-only; the runs
   themselves execute only on the worker domains. *)

open Failatom_core
open Failatom_runtime
open Failatom_minilang
module Obs = Failatom_obs.Obs

exception Campaign_error of string

exception Cancelled
(* The [cancel] callback returned [true]: workers stopped claiming and
   the campaign aborted after draining in-flight runs. *)

(* Campaign-level observability.  Counters mirror the scheduler stats
   (added once per campaign, so they aggregate across campaigns in one
   process); the queue-depth distribution samples how many claimed
   thresholds are in flight each time a worker claims, and worker_runs
   records how evenly the workers shared the runs. *)
let m_executed = Obs.counter "campaign.runs_executed"
let m_reused = Obs.counter "campaign.runs_reused"

(* Under coalescing, first-visit representatives whose run produced at
   least one non-atomic mark: how often the first visit of a site
   already surfaces a verdict. *)
let m_seed_order_hits = Obs.counter "campaign.seed_order_hits"

(* The campaign-side view of the same pruning census {!Detect.run}
   publishes; [Obs.counter] dedups by name, so both paths feed one
   counter.  Likewise [sched.schedules_explored], shared with the
   sequential driver's schedule axis. *)
let m_points_total = Obs.counter "detect.points_total"
let m_points_coalesced = Obs.counter "detect.points_coalesced"
let m_schedules = Obs.counter "sched.schedules_explored"
let g_workers = Obs.gauge "campaign.workers"
let h_queue_depth = Obs.histogram ~unit_:Obs.Items "campaign.queue_depth"
let h_worker_runs = Obs.histogram ~unit_:Obs.Items "campaign.worker_runs"

let default_jobs () = min 8 (max 1 (Domain.recommended_domain_count () - 1))

(* Identifies the program inside a journal so that a resume against a
   different program or flavor is rejected instead of silently merging
   unrelated runs.  Also the key of the server's content-addressed
   caches, hence the delegation to the single definition. *)
let program_digest = Minilang.program_digest

(* Which campaign phase a journaled run belongs to: records of non-coop
   schedules carry their spec; coop records carry none (so sequential
   journals stay byte-identical to the pre-scheduler format). *)
let spec_of_run (r : Marks.run_record) =
  match r.Marks.sched with None -> "coop" | Some s -> s.Marks.sched_spec

let load_journal ~warn ~path ~header:(expected : Journal.header) =
  match Journal.load ~warn ~path () with
  | None -> ([], Some (Journal.create ~path expected))
  | Some (found, runs) ->
    if not (String.equal found.Journal.flavor expected.Journal.flavor) then
      raise
        (Campaign_error
           (Printf.sprintf "journal %s was recorded with flavor %s, not %s" path
              found.Journal.flavor expected.Journal.flavor));
    if not (String.equal found.Journal.program_digest expected.Journal.program_digest)
    then
      raise
        (Campaign_error
           (Printf.sprintf "journal %s was recorded for a different program" path));
    (* Rewrite rather than append: this scrubs a truncated trailing
       block left by a kill mid-append, which would otherwise corrupt
       the grammar for the next resume. *)
    let w = Journal.create ~path expected in
    List.iter (Journal.append w) runs;
    (runs, Some w)
  | exception Run_log.Bad_log (msg, line) ->
    raise (Campaign_error (Printf.sprintf "corrupt journal %s: line %d: %s" path line msg))

let run ?config ?(flavor = Detect.Source_weaving) ?plain ?compiled ?run_timeout_s
    ?(cancel = fun () -> false) ?jobs ?journal ?(resume = false) ?(report = Progress.null) (program : Ast.program) :
    Detect.result * Progress.summary =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  Obs.span "campaign.run" ~attrs:[ ("flavor", Detect.flavor_name flavor) ] @@ fun () ->
  let t_start = Unix.gettimeofday () in
  (* One-time work, done on the spawning domain and shared read-only by
     every worker.  Callers that already hold the images (the server's
     content-addressed cache) pass them in and skip compilation. *)
  let s = Detect.set_up ?config ~flavor ?plain ?compiled program in
  (* Every worker repeats the uninjected run, so workers beyond the
     cores only add walks that compete for them. *)
  let jobs = min jobs (Domain.recommended_domain_count ()) in
  Obs.set_gauge g_workers jobs;
  let config = s.Detect.s_config and analyzer = s.Detect.s_analyzer in
  let compiled = s.Detect.s_compiled and coalesce = s.Detect.s_coalesce in
  let header =
    { Journal.flavor = Detect.flavor_name flavor; program_digest = program_digest program }
  in
  let journaled, writer =
    match journal with
    | None ->
      if resume then raise (Campaign_error "cannot resume without a journal path");
      ([], None)
    | Some path ->
      if resume then
        load_journal ~warn:(fun msg -> report (Progress.Warning msg)) ~path ~header
      else ([], Some (Journal.create ~path header))
  in
  report (Progress.Started { workers = jobs; reused = List.length journaled });
  (* CPU seconds consumed by the whole process; the delta over the
     campaign is the work a single worker would have had to do
     back-to-back, so cpu/wall is the honest effective parallelism even
     when the machine has fewer cores than workers. *)
  let cpu_now () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let cpu_start = cpu_now () in
  let total_executed = ref 0 in
  let total_reused = ref 0 in
  let total_synthesized = ref 0 in
  (* One complete campaign — own scheduler, own frontier, own worker
     domains — for one schedule.  Returns the merged frontier-truncated
     run list and the phase's transparency verdict against its own
     uninjected baseline. *)
  let run_phase ((spec, policy) as schedule) =
    Obs.span "detect.schedule" ~attrs:[ ("schedule", spec) ] @@ fun () ->
    Obs.incr m_schedules;
    let journaled_here =
      List.filter (fun r -> String.equal (spec_of_run r) spec) journaled
    in
    let sched = Scheduler.create ~journaled:journaled_here () in
    let mutex = Mutex.create () in
    let locked f =
      Mutex.lock mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f
    in
    (* The failure the phase ends with: the lowest rank wins, the first
       of equal ranks. *)
    let failure : (int * exn) option ref = ref None in
    let fail rank e =
      match !failure with
      | Some (r, _) when r <= rank -> ()
      | Some _ | None -> failure := Some (rank, e)
    in
    (* The rest is called with the mutex held.  Every record is
       journaled as it is filed, once. *)
    let file ~executed (r : Marks.run_record) =
      (match writer with
       | Some w when not (Scheduler.filed sched r.Marks.injection_point) ->
         Journal.append w r
       | Some _ | None -> ());
      if executed then Scheduler.record sched r else Scheduler.adopt sched r
    in
    let tick () =
      let completed, injections, needed, executed = Scheduler.progress sched in
      let elapsed = Unix.gettimeofday () -. t_start in
      let rate = if elapsed > 0. then float_of_int executed /. elapsed else 0. in
      let eta_s =
        match needed with
        | Some n when rate > 0. -> Some (float_of_int (n - completed) /. rate)
        | Some _ | None -> None
      in
      report (Progress.Tick { completed; needed; injections; elapsed_s = elapsed; rate; eta_s })
    in
    (* A coalesced group: the executed representative, then its members
       (synthesized, or executed after a timed-out representative). *)
    let file_group (g : Prune.group) rep members =
      file ~executed:true rep;
      if
        Option.is_some coalesce && g.Prune.first_visit
        && List.exists (fun (m : Marks.mark) -> not m.Marks.atomic) rep.Marks.marks
      then Obs.incr m_seed_order_hits;
      List.iter (file ~executed:rep.Marks.timed_out) members;
      tick ()
    in
    (* Claimed-but-unfiled runs, i.e. runs in flight. *)
    let in_flight = ref 0 in
    let start_run () =
      incr in_flight;
      Obs.observe h_queue_depth !in_flight
    in
    (* A worker.  A failing run ranks by its threshold; the walk's own
       failure (census, [max_runs]) ranks after every run's failure, or
       before them under coalescing — the order of the sequential walk.
       Under coalescing a run's failure stops the running but not the
       walk: the census may still fail first. *)
    let walked = ref false in
    let census = ref None in
    let walk_rank = if Option.is_some coalesce then 0 else max_int in
    let worker () =
      let ran = ref 0 in
      let visit g =
        locked (fun () ->
            let go_on =
              match !failure with
              | Some (rank, _) -> Option.is_some coalesce && rank > 0 && not !walked
              | None -> true
            in
            if not go_on then Detect.Stop
            else if cancel () then begin
              fail min_int Cancelled;
              Detect.Stop
            end
            else if Option.is_some !failure then Detect.Pass
            else begin
              let v = Scheduler.visit sched g in
              if v = Detect.Fork then start_run ();
              v
            end)
      in
      let forked g outcome =
        locked (fun () ->
            decr in_flight;
            incr ran;
            match outcome with
            | Ok (rep, members) -> file_group g rep members
            | Error e -> fail (fst (Prune.rep g)) e)
      in
      (match
         Detect.walk_with ?run_timeout_s ?flow:coalesce ~schedule compiled config analyzer
           ~visit ~forked
       with
       | Detect.Stopped -> ()
       | Detect.Finished { probe; points; groups } ->
         locked (fun () ->
             walked := true;
             if Option.is_some coalesce && Option.is_none !census then
               census := Some (points - groups);
             if not (Scheduler.filed sched probe.Marks.injection_point) then begin
               (* executed, as Listing 1's loop executes it, or under
                  coalescing adopted, as the census that stands in for
                  it *)
               file ~executed:(Option.is_none coalesce) probe;
               tick ()
             end)
       | exception e -> locked (fun () -> fail walk_rank e));
      Obs.observe h_worker_runs !ran
    in
    if not (Scheduler.finished sched) then begin
      let domains = List.init jobs (fun _ -> Domain.spawn worker) in
      List.iter Domain.join domains
    end;
    (match !failure with Some (_, e) -> raise e | None -> ());
    Option.iter (Obs.add m_points_coalesced) !census;
    let runs = Scheduler.runs sched in
    let stats = Scheduler.stats sched in
    total_executed := !total_executed + stats.Scheduler.executed;
    total_reused := !total_reused + stats.Scheduler.reused;
    total_synthesized := !total_synthesized + stats.Scheduler.synthesized;
    (* The frontier run is the no-injection probe; its output against
       this schedule's own uninjected baseline is the paper's
       transparency check, exactly as in [Detect.run]. *)
    let baseline_output =
      match policy with
      | Sched.Coop -> s.Detect.s_profile.Profile.output
      | Sched.Slice _ | Sched.Pct _ ->
        Detect.baseline_under s.Detect.s_plain ~prepare:ignore policy
    in
    let probe = List.nth runs (List.length runs - 1) in
    (runs, String.equal probe.Marks.output baseline_output)
  in
  let phases =
    Fun.protect
      ~finally:(fun () -> match writer with Some w -> Journal.close w | None -> ())
      (fun () -> List.map run_phase s.Detect.s_schedules)
  in
  let runs = List.concat_map fst phases in
  let transparent = List.for_all snd phases in
  Obs.add m_executed !total_executed;
  Obs.add m_reused !total_reused;
  (* Every reached point has its record; one never-injecting probe per
     phase. *)
  let probes = List.length s.Detect.s_schedules in
  Obs.add m_points_total (List.length runs - probes);
  let result =
    { Detect.flavor;
      config;
      analyzer;
      profile = s.Detect.s_profile;
      runs;
      injections = List.length runs - probes;
      transparent }
  in
  let summary =
    { Progress.total_runs = List.length runs;
      injections = result.Detect.injections;
      executed = !total_executed;
      reused = !total_reused;
      discarded = 0;
      synthesized = !total_synthesized;
      workers = jobs;
      wall_clock_s = Unix.gettimeofday () -. t_start;
      busy_s = cpu_now () -. cpu_start }
  in
  report (Progress.Finished summary);
  (result, summary)
