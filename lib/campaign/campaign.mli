(** The parallel, resumable detection-campaign engine.

    Drop-in replacement for {!Detect.run} that executes the
    injection-threshold runs across OCaml 5 domains — every worker
    walks the uninjected run (per schedule) and runs the points it
    claims ({!Scheduler.visit}), forked or, under a run budget, on fresh
    VMs — journals every filed record for
    resumption ({!Journal}), and reports progress ({!Progress}).  The
    returned {!Detect.result} is identical to what the sequential loop
    produces on the same program and flavor. *)

open Failatom_core
open Failatom_minilang

exception Campaign_error of string
(** User-level misuse: resuming without a journal, or against a journal
    recorded for a different program or flavor, or a corrupt journal. *)

exception Cancelled
(** The [cancel] callback returned [true]: workers stopped claiming new
    thresholds and the campaign aborted once in-flight runs drained
    (each bounded by [run_timeout_s] when set).  The journal, if any,
    retains every record filed before the abort, so a cancelled
    campaign can later be resumed. *)

val default_jobs : unit -> int
(** One worker per available core minus one, clamped to [1..8]. *)

val program_digest : Ast.program -> string
(** md5 hex of the pretty-printed program; identifies the program inside
    a journal header. *)

val run :
  ?config:Config.t ->
  ?flavor:Detect.flavor ->
  ?plain:Compile.image ->
  ?compiled:Detect.compiled ->
  ?run_timeout_s:float ->
  ?cancel:(unit -> bool) ->
  ?jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?report:(Progress.event -> unit) ->
  Ast.program ->
  Detect.result * Progress.summary
(** Runs the complete detection phase in parallel.

    Worker domains execute the runs, never the calling thread.  Each
    worker walks the uninjected run once (per schedule phase) and runs
    the injected runs of the points it claims, as {!Detect.run} runs
    them all: forked off the walk (with [run_timeout_s], each under that
    budget from its fork point).  No run is speculative, so [discarded] is
    always 0.  A campaign runs [jobs] workers (default {!default_jobs})
    but never more than [Domain.recommended_domain_count ()], since
    every extra walk repeats the uninjected run; the summary reports the
    workers that ran.

    [journal] appends every filed record to the given path; [resume]
    additionally adopts the runs already journaled there, so only
    missing thresholds are executed (a coalesced group is re-executed
    unless every member is on file) and resuming a complete journal
    executes nothing.  [report] receives progress events.

    [plain] and [compiled] reuse already-built images of this very
    [program] (the server's content-addressed image cache), skipping
    the per-campaign weaving and compilation.  [run_timeout_s] bounds
    each run's wall-clock time; a timed-out run is recorded with
    [Marks.timed_out] and never establishes the frontier.  [cancel] is
    polled at every point a walk offers; once it returns [true] the
    campaign aborts with {!Cancelled}.

    Concurrent programs ({!Minilang.uses_concurrency}) run one complete
    campaign phase per spec in [config.schedules], exactly as in
    {!Detect.run} (per-schedule baselines, pruning forced off); the
    journal holds all phases' runs and a resume partitions them by each
    record's schedule spec, so every phase adopts only its own prior
    work.  Sequential programs keep the single coop phase and a journal
    format byte-identical to before.

    @raise Detect.Detection_error as {!Detect.run} would (a genuine
    failure inside a run, or [max_runs] exceeded); a walking campaign
    raises the very error {!Detect.run} does, whatever [jobs] is.
    @raise Campaign_error on journal misuse.
    @raise Cancelled when [cancel] fired. *)
