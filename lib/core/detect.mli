(** The detection phase driver (paper §4.1, Step 3 of Figure 1).

    Produces the records of the exception injector program run with the
    threshold armed at 1, 2, 3, … until a run completes with no
    injection.  That final probe run doubles as a transparency check
    (the instrumented program must reproduce the baseline output) and
    contributes the marks of the workload's {e real} exception paths.

    Runs are deterministic, so run k repeats the uninjected run up to
    point k.  The one detection loop, {!walk_with}, therefore {e walks} the
    uninjected run once per schedule: it is the probe run and the point
    census, and it forks every injected run from its injection point
    (interpreter continuation, heap, globals, output, counters,
    injection state and, for concurrent programs, the scheduler with
    every thread's frames are copied or rewound; see {!Sched.fork}); the
    records are bitwise-identical to fresh runs.  That holds under a
    [prepare] hook too, as long as its hooks keep their state in the VM
    (heap, globals, the handle table of {!Vm.add_handle}), and under a
    wall-clock budget, which covers each injected run from its fork
    point.  {!run_once} runs one threshold on a fresh VM: the reference
    the walk is tested against. *)

open Failatom_runtime
open Failatom_minilang

type flavor =
  | Source_weaving  (** the paper's C++ / AspectC++ implementation *)
  | Load_time_filters  (** the paper's Java / JWG implementation *)

val flavor_name : flavor -> string
(** ["source-weaving"] / ["load-time-filters"]: run logs, journals and
    reports. *)

val flavor_wire_names : (string * flavor) list
(** ["source"] / ["binary"]: the CLI's [--flavor] values and the name
    plans, cache keys, store files and [failatom.rpc/1] requests carry. *)

val flavor_wire_name : flavor -> string
val flavor_of_wire_name : string -> flavor option

type result = {
  flavor : flavor;
  config : Config.t;
  analyzer : Analyzer.t;
  profile : Profile.t;
  runs : Marks.run_record list;
      (** one record per injection run, plus the final no-injection
          probe run ([injected = None]) *)
  injections : int;  (** number of runs in which an exception fired *)
  transparent : bool;  (** probe run matched the baseline output *)
}

exception Detection_error of string
(** A non-MiniLang failure inside a run: a genuine bug in the workload
    or in the instrumentation. *)

type compiled
(** The one-time work for a program×flavor pair: the compiled
    {!Compile.image}, woven for {!Source_weaving} (weaving happens once
    here, not once per threshold).  Immutable — every injection run
    instantiates its own VM from it, concurrently from several domains
    in a campaign. *)

val compile : ?plain:Compile.image -> flavor -> Ast.program -> compiled
(** Compiles [program] for detection under the given flavor.  [plain]
    is an already-built image of the {e unmodified} program (e.g. the
    one the profile ran on); {!Load_time_filters} reuses it instead of
    recompiling, {!Source_weaving} ignores it (it compiles the woven
    program). *)

val run_once :
  ?schedule:string * Sched.policy -> compiled -> Config.t -> Analyzer.t ->
  prepare:(Vm.t -> unit) -> threshold:int -> Marks.run_record
(** One detection run with the given threshold armed, on a fresh VM and
    heap instantiated from the compiled image: Listing 1's run, the
    test oracle every walk is compared with (no library code runs it).
    [schedule] (default [("coop", Sched.Coop)]) is the (spec, policy)
    pair the run executes under; non-coop records carry
    {!Marks.sched_info}.
    @raise Detection_error on a non-MiniLang failure inside the run. *)

val baseline_under :
  Compile.image -> prepare:(Vm.t -> unit) -> Sched.policy -> string
(** Output of the {e uninjected} program run under [policy] on a fresh
    VM — the per-schedule transparency baseline.  For {!Sched.Coop} this
    equals the profile run's output; preemptive policies need their own
    baseline because a schedule may legitimately reorder output. *)

type visit =
  | Fork  (** fork the point's run (a coalesced group's representative) *)
  | Pass  (** walk on uninjected *)
  | Stop  (** end the walk here *)

type walk_end =
  | Finished of {
      probe : Marks.run_record;
          (** the walk's own record: the no-injection probe, numbered
              one past the last point *)
      points : int;  (** injection points reached *)
      groups : int;  (** blindness groups among them (coalescing) *)
    }
  | Stopped  (** a [visit] hook returned [Stop] *)

val walk_with :
  ?prepare:(Vm.t -> unit) -> ?run_timeout_s:float ->
  ?flow:Exnflow.t -> ?schedule:string * Sched.policy ->
  compiled -> Config.t -> Analyzer.t -> visit:(Prune.group -> visit) ->
  forked:
    (Prune.group ->
    (Marks.run_record * Marks.run_record list, exn) Stdlib.result -> unit) ->
  walk_end
(** The prefix-sharing walk of a program under [schedule] (default
    coop), driven by hooks: one uninjected run that offers every
    injection point it reaches, in whichever thread, to [visit] — under
    coalescing ([flow]) only the head of each blindness group, as a
    group whose [members] include its synthesized points; otherwise
    each point as a one-member group — and, on [Fork], runs the
    injected run there and hands [forked] its record and its members'
    records, or the failure of the run (records of a non-coop schedule
    carry its spec, switch count and decision digest, as {!run_once}'s
    do).  A [visit] that always passes makes the walk a point census.
    The walker's VM is its own, so walks may run on several domains at
    once from one [compiled] image; every walk of a program under one
    schedule visits the same points in the same order.

    Every injected run is forked off the walk and counted under
    [detect.forks].  [prepare] prepares the walk's VM (it registers
    extra hooks, e.g. {!Mask.register_hooks}); since a fork rewinds
    only the VM and the injection state, the hooks must keep their
    state in the VM (heap, globals, the handle table of
    {!Vm.add_handle}).  [run_timeout_s] bounds each injected run from
    its fork point; the walk itself carries no budget.  A coalesced
    group whose representative timed out gets its members forked at
    their own points, since a wall-clock abort is not bisimilar across
    class tags; [forked] gets the group once its last member has run.
    A run whose point is reached under native re-entry (a hook calling
    back into the program, in this thread or another) cannot be forked
    and fails with a [Detection_error] naming its point.

    The walk itself fails, whatever the hooks do, as Listing 1's loop
    would past the last point: [max_runs] exceeded (without [flow] at
    the first point past it, with [flow] once the census is complete),
    or a failure of the uninjected run itself.  An exception raised by
    a hook ends the walk and is re-raised as is. *)

val walk :
  ?prepare:(Vm.t -> unit) -> ?run_timeout_s:float ->
  ?flow:Exnflow.t -> ?schedule:string * Sched.policy ->
  compiled -> Config.t -> Analyzer.t -> baseline_output:string ->
  Marks.run_record list * bool
(** The prefix-sharing detection loop of one schedule: one
    {!walk_with} that forks every point; returns the runs (injection
    runs by threshold, then the probe) and whether the probe's output
    equals [baseline_output].  With [flow] it coalesces (only each
    blindness group's representative forks, the members are
    synthesized).  Errors are those of Listing 1's loop on fresh VMs, in
    the same order.  [prepare] and [run_timeout_s] are as for
    {!walk_with}.  {!run} runs one per schedule. *)

type setup = {
  s_config : Config.t;
      (** the requested configuration, coalescing forced off for
          concurrent programs *)
  s_schedules : (string * Sched.policy) list;
      (** the schedule axis: every spec in [config.schedules] for a
          concurrent program, the single coop schedule otherwise *)
  s_coalesce : Exnflow.t option;
      (** the exception-flow analysis, when the configuration coalesces *)
  s_analyzer : Analyzer.t;  (** drop filters its injectable sets *)
  s_plain : Compile.image;
  s_profile : Profile.t;
  s_compiled : compiled;
}
(** The one-time work of a detection, shared by {!run} and
    {!Failatom_campaign.Campaign.run}. *)

val set_up :
  ?config:Config.t -> ?flavor:flavor -> ?prepare:(Vm.t -> unit) ->
  ?plain:Compile.image -> ?compiled:compiled -> Ast.program -> setup
(** Resolves the schedules, analyzes the program (flow, analyzer, and
    the [detect.points_dropped] census under drop), runs the profile
    and compiles the program — reusing [plain] and [compiled] when
    given.  Arguments are those of {!run}.
    @raise Detection_error on an unknown schedule spec, or when the
    uninjected profile run lets an exception escape [main] (the message
    names its class and message): detection needs a baseline that
    completes. *)

val run :
  ?config:Config.t -> ?flavor:flavor -> ?prepare:(Vm.t -> unit) ->
  ?plain:Compile.image -> ?compiled:compiled -> ?run_timeout_s:float ->
  Ast.program -> result
(** Runs the complete detection phase.  [prepare] registers extra hooks
    on every VM created (e.g. {!Mask.register_hooks} when re-validating
    an already-masked program), which keep their state in the VM (see
    {!walk_with}).  [plain] and [compiled] reuse
    already-built images of this very [program] (skipping compilation —
    the server's image cache); [run_timeout_s] bounds the wall-clock
    time of each injected run from its fork point (not the shared
    prefix), and a timed-out run never ends the detection loop even
    when no injection fired.

    [config.prune] selects the campaign-pruning mode.  [Prune_drop]
    filters provably-impossible generic exceptions out of the
    injectable sets (changing point numbering); [Prune_coalesce] runs
    one representative per handler-blindness group and synthesizes the
    other members' records, producing a [runs] list bitwise-identical
    to [Prune_off]'s (see doc/exnflow.md).

    For concurrent programs ({!Minilang.uses_concurrency}) every spec in
    [config.schedules] is crossed with the injection-point axis: one
    full campaign per schedule, each probe checked against that
    schedule's own uninjected baseline, records of non-coop schedules
    tagged with {!Marks.sched_info} — and [Prune_coalesce] is forced
    off (handler activity depends on the interleaving); [Prune_drop]
    applies, since may-raise sets are per method.
    Sequential programs always run the single coop schedule, leaving
    their results byte-identical to the pre-scheduler pipeline.

    Each schedule runs as one {!walk}, which forks every injected run;
    counter [detect.forks] counts them. *)
