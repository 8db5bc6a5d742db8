(** The parallel, resumable detection-campaign engine.

    Drop-in replacement for {!Detect.run} that executes the
    injection-threshold runs across OCaml 5 domains — every worker
    walks the uninjected run (per schedule) and forks the points it
    claims ({!Scheduler.visit}) — journals every filed record for
    resumption ({!Journal}), and reports progress ({!Progress}).  The
    returned {!Detect.result} is identical to what the sequential loop
    produces on the same program and flavor. *)

open Failatom_core
open Failatom_runtime
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
  ?prepare:(Vm.t -> unit) ->
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
    worker walks the uninjected run once (per schedule phase) and forks
    the injected runs of the points it claims, as {!Detect.run} forks
    them all; no run is speculative, so [discarded] is 0, and a
    one-worker campaign's summary counts are those of the fresh-VM
    path.  Walking campaigns run [jobs] workers (default
    {!default_jobs}) but never more than
    [Domain.recommended_domain_count ()], since every extra walk repeats
    the uninjected run; the summary reports the workers that ran.  A
    [prepare] hook or [run_timeout_s] gives every run a fresh VM
    ({!Detect.run_once}) with speculative claiming on [jobs] workers, as
    in {!Detect.run}; [prepare] is applied to each and must be safe to
    call from multiple domains.

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
    polled at every point a walk offers (fresh-VM workers: before
    every claim); once it returns [true] the campaign aborts with
    {!Cancelled}.

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
