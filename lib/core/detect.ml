(* The detection phase driver (paper §4.1, Step 3 of Figure 1).

   Produces the runs of the exception injector program armed at
   injection point 1, 2, 3, ...; runs are independent, as if each had a
   fresh VM and heap (the paper restarts the injector process).  The
   loop terminates at the first run in which the armed threshold exceeds
   the number of injection points actually reached — at that point every
   reachable injection point has been exercised once.  That final probe
   run doubles as a transparency check: with no injection firing, the
   instrumented program must produce the baseline output.

   One loop produces the records: [walk_with] runs a program once per
   schedule and offers every injection point it reaches; each offered
   run is forked from its point (see the prefix-sharing section below),
   also under a [prepare] hook or a wall-clock budget, which then
   covers the injected suffix from its fork point.  [run_once] runs one
   threshold on a fresh VM: Listing 1's run, the reference tests
   compare the walk with.  [walk] runs every offered point, a
   campaign's workers run the ones they claim.  Concurrent programs
   walk too: a fork point adds the scheduler's state to the VM's and
   the injection state's — every thread (tid, state, [joined], PCT
   priority and its suspended frames, whether it waits at a call's
   preemption opportunity, in [join], on a monitor or has not started),
   every monitor (owner, depth, FIFO waiters), the run queue,
   [next_tid], the splitmix stream and FNV digest, the counters, the
   quantum and the PCT state, and the VM's [preempt_flag], [cur_tid]
   and [sched_*] fields ({!Sched.fork}).
   [set_up] is the one-time work both [run] and campaigns start
   from. *)

open Failatom_runtime
open Failatom_minilang
module Obs = Failatom_obs.Obs

type flavor =
  | Source_weaving (* the paper's C++ / AspectC++ implementation *)
  | Load_time_filters (* the paper's Java / JWG implementation *)

let flavor_name = function
  | Source_weaving -> "source-weaving"
  | Load_time_filters -> "load-time-filters"

let flavor_wire_names = [ ("source", Source_weaving); ("binary", Load_time_filters) ]
let flavor_wire_name f = fst (List.find (fun (_, f') -> f' = f) flavor_wire_names)
let flavor_of_wire_name name = List.assoc_opt name flavor_wire_names

type result = {
  flavor : flavor;
  config : Config.t;
  analyzer : Analyzer.t;
  profile : Profile.t;
  runs : Marks.run_record list;
      (* one record per injection run, plus the final no-injection probe
         run (injected = None).  The probe run matters: its marks record
         the atomicity of the *real* exception paths the workload
         exercises without any injected fault. *)
  injections : int; (* number of runs in which an exception fired *)
  transparent : bool; (* final no-injection run matched baseline output *)
}

(* A non-MiniLang failure inside an injection run: a genuine bug either
   in the workload or in the instrumentation. *)
exception Detection_error of string

(* The per-program×flavor one-time work: the program image, woven for
   source weaving (weaving happens once here, not once per threshold).
   Immutable; shared by every injection run, including across campaign
   domains. *)
type compiled = {
  cflavor : flavor;
  cimage : Compile.image;
}

let compile ?plain flavor (program : Ast.program) : compiled =
  let cimage =
    match flavor with
    | Load_time_filters -> (
      (* load-time interposition runs the unmodified program, so the
         plain image (already built for the profile) is shareable *)
      match plain with
      | Some img -> img
      | None -> Compile.image program)
    | Source_weaving -> Compile.image (Source_weaver.weave_injection program)
  in
  { cflavor = flavor; cimage }

(* Builds the instrumented VM for one run and returns it together with
   the armed injection state.  [prepare] registers any extra hooks the
   program needs (e.g. checkpoint hooks of an already-masked program
   being re-validated). *)
let instrumented_vm compiled config analyzer ~prepare ~threshold =
  let state = Injection.make_state config analyzer ~threshold in
  let vm = Compile.instantiate compiled.cimage in
  prepare vm;
  (match compiled.cflavor with
   | Load_time_filters -> Injection.attach state vm
   | Source_weaving -> Injection.register_hooks state vm);
  (vm, state)

(* One injection run fired an exception (i.e. was not the probe run). *)
let m_injections_fired = Obs.counter "detect.injections_fired"

let m_runs_timed_out = Obs.counter "detect.runs_timed_out"

(* Pruning observability: how many injection points the campaign had,
   and how many of them were never run because the static analysis
   removed them (drop) or folded them into a representative
   (coalesce). *)
let m_points_total = Obs.counter "detect.points_total"
let m_points_dropped = Obs.counter "detect.points_dropped"
let m_points_coalesced = Obs.counter "detect.points_coalesced"

(* Prefix sharing: injected runs forked from the walk. *)
let m_forks = Obs.counter "detect.forks"

(* The default schedule: sequential detection always runs under [Coop],
   whose records carry no sched info — byte-identical to the
   pre-scheduler pipeline. *)
let coop_schedule = ("coop", Sched.Coop)

(* How a run ended. *)
type ending = Returned | Escaped of Vm.exn_value | Timed_out

(* The detection error a non-MiniLang failure of run [threshold]
   becomes, if it is one. *)
let run_error threshold = function
  | Compile.Runtime_error (msg, pos) ->
    Some
      (Detection_error (Fmt.str "run %d aborted: %s at %a" threshold msg Ast.pp_pos pos))
  | Vm.Step_limit_exceeded ->
    Some (Detection_error (Fmt.str "run %d exceeded the step limit" threshold))
  | _ -> None

let ending_of_exn ~threshold = function
  | Vm.Mini_raise e -> Escaped e
  | Vm.Deadline_exceeded ->
    (* The armed timeout fired: record the observations made so far
       instead of wedging the worker.  The abort unwinds as an OCaml
       exception, so no wrapper mistakes it for an exceptional MiniLang
       return. *)
    Obs.incr m_runs_timed_out;
    Timed_out
  | ex -> ( match run_error threshold ex with Some err -> raise err | None -> raise ex)

(* The record of a finished run, read off its injection state and VM,
   and whether the exception escaping [main] was the injected one. *)
let record_of ~threshold ?sched state vm ending =
  let escaped, injected_escaped, timed_out =
    match ending with
    | Returned -> (None, false, false)
    | Escaped e ->
      (* Identity, not class, decides whether the escaping exception is
         the injected one: a natural exception of the injected class
         must not be re-tagged by coalescing. *)
      let same =
        state.Injection.injected_exn_id <> 0
        && (match e.Vm.exn_obj with
           | Value.Ref i -> i = state.Injection.injected_exn_id
           | _ -> false)
      in
      (Some e.Vm.exn_class, same, false)
    | Timed_out -> (None, false, true)
  in
  if Option.is_some state.Injection.injected then Obs.incr m_injections_fired;
  ( { Marks.injection_point = threshold;
      injected = state.Injection.injected;
      marks = Injection.marks state;
      escaped;
      output = Vm.output vm;
      calls = vm.Vm.calls;
      timed_out;
      sched },
    injected_escaped )

(* What a record of a run under [schedule] says of its schedule. *)
let sched_info (spec, policy) vm =
  match policy with
  | Sched.Coop -> None
  | Sched.Slice _ | Sched.Pct _ ->
    Some
      { Marks.sched_spec = spec;
        sched_switches = vm.Vm.sched_switches;
        sched_digest = vm.Vm.sched_digest }

let run_once ?(schedule = coop_schedule) compiled config analyzer ~prepare ~threshold :
    Marks.run_record =
  let vm, state = instrumented_vm compiled config analyzer ~prepare ~threshold in
  let ending =
    match Compile.run_main ~policy:(snd schedule) vm with
    | _ -> Returned
    | exception ex -> ending_of_exn ~threshold ex
  in
  fst (record_of ~threshold ?sched:(sched_info schedule vm) state vm ending)

(* [threshold], unless the walk must stop with the max_runs error
   before running it — the numbering rule of Listing 1's loop. *)
let within_max_runs config threshold =
  if threshold > config.Config.max_runs then
    raise
      (Detection_error
         (Printf.sprintf "exceeded max_runs = %d injection runs" config.Config.max_runs));
  threshold

(* ------------------------------------------------------------------ *)
(* The prefix-sharing walk                                             *)
(* ------------------------------------------------------------------ *)

(* Runs are deterministic, so run k repeats the uninjected run step for
   step up to injection point k.  The walk executes the uninjected run
   once under its schedule; at every point, in whichever thread reaches
   it, it copies that thread's continuation ([Exec.capture]) and takes a
   fork point of the VM and the injection state, runs the injected
   suffix from there to the end on a copy of the scheduler
   ([Compile.fork_raise]), emits its record and rewinds — then carries
   on uninjected.  A suffix's step counter continues from the fork
   point, so the step limit trips where a fresh run's would, and its
   allocations get the ids a fresh run's would.  The walk itself is the
   probe run and the point census.  Under coalescing each entry is split
   into blindness groups as it is reached, only representatives run,
   members are synthesized.

   A fork copies and rewinds only what lives in the VM and the
   injection state, so hooks keep their state there: [Mask]'s
   checkpoints and the source flavor's snapshots are tokens of the VM's
   handle table.  A wall-clock budget is armed as a suffix starts and
   disarmed once it is rewound: it covers the injected run from its
   fork point, and the walk itself carries none, like the profile run
   of the same program.  A point reached under native re-entry (a hook
   calling back into the program, in this thread or another) has a
   continuation no fork can copy: its run fails with a
   [Detection_error]. *)

(* A failure the walk leaves with as is: raised through the walk's own
   frames, it must look neither like a MiniLang exception nor like loop
   control to them. *)
exception Walk_abort of exn

(* A [visit] hook asked the walk to stop. *)
exception Walk_stop

(* The failure of a run whose point some thread reaches under native
   re-entry. *)
let reentered threshold =
  Error
    (Detection_error
       (Printf.sprintf
          "run %d cannot fork: its injection point is reached under native re-entry"
          threshold))

(* The run armed at the point being visited, forked from the walk
   under [run_timeout_s], if given: its record and whether the injected
   exception escaped [main], or its failure.  The VM and the injection
   state are rewound before returning. *)
let fork_run ?run_timeout_s ~schedule state vm ~threshold inject =
  match Exec.capture vm with
  | None -> reentered threshold
  | Some k ->
    let vf = Vm.fork vm in
    let sv = Injection.save state in
    state.Injection.walker <- None;
    (match run_timeout_s with
     | Some timeout_s -> Vm.arm_deadline vm ~timeout_s
     | None -> ());
    let record ending =
      Ok (record_of ~threshold ?sched:(sched_info schedule vm) state vm ending)
    in
    let result =
      match Compile.fork_raise vm k inject with
      | None -> reentered threshold
      | Some outcome -> (
        Obs.incr m_forks;
        match outcome with
        | Ok _ -> record Returned
        | Error ex -> (
          match ending_of_exn ~threshold ex with
          | ending -> record ending
          | exception ex -> Error ex))
    in
    Vm.rewind vm vf;
    vm.Vm.deadline_ns <- 0;
    Injection.restore state sv;
    result

type visit = Fork | Pass | Stop

type walk_end =
  | Finished of { probe : Marks.run_record; points : int; groups : int }
  | Stopped

(* The entry whose points are being visited, and the point being
   offered.  One per walk, updated in place: the walk allocates nothing
   per point for hooks that do not read the group. *)
type cursor = {
  mutable c_site : Method_id.t;
  mutable c_first : int; (* its first point *)
  mutable c_classes : string list;
  mutable c_first_visit : bool; (* the site's first dynamic visit *)
  mutable c_heads : (int * string) list option array;
      (* coalescing: per class index, the blindness group that class
         heads, if it heads one *)
  mutable c_point : int; (* the point being offered *)
}

(* The walk itself, driven by {!walk_with}'s hooks, except that they get
   the group of the point offered as a function: hooks that do not read
   it never build it. *)
let walk_core ?(prepare = fun (_ : Vm.t) -> ()) ?run_timeout_s ?flow ~schedule compiled
    config analyzer ~(visit : (unit -> Prune.group) -> visit)
    ~(forked :
       (unit -> Prune.group) ->
       (Marks.run_record * Marks.run_record list, exn) Stdlib.result -> unit) =
  let vm, state = instrumented_vm compiled config analyzer ~prepare ~threshold:0 in
  let last = ref 0 (* the last point reached *) in
  let n_groups = ref 0 in
  let run_at = fork_run ?run_timeout_s ~schedule state vm in
  (* A coalesced group whose representative timed out, with the members
     still to run and the records of those run (reversed): a wall-clock
     abort is not bisimilar across class tags, so each member forks at
     its own point.  Those follow the head's in the same entry, with no
     execution in between. *)
  let late = ref None in
  (* An entry's grouping depends on its site only (the injectable
     classes are the site's), so each site is partitioned once. *)
  let partitions = Hashtbl.create 16 in
  let c =
    { c_site = Method_id.make "" ""; c_first = 0; c_classes = []; c_first_visit = false;
      c_heads = [||]; c_point = 0 }
  in
  let w_entry site classes ~first =
    (match Hashtbl.find partitions site with
     | heads ->
       c.c_first_visit <- false;
       c.c_heads <- heads
     | exception Not_found ->
       let heads =
         match flow with
         | None -> [||]
         | Some flow ->
           let heads = Array.make (List.length classes) None in
           List.iter
             (fun group -> heads.(fst (List.hd group)) <- Some group)
             (Prune.partition_pairs flow site (List.mapi (fun i cls -> (i, cls)) classes));
           heads
       in
       Hashtbl.replace partitions site heads;
       c.c_first_visit <- true;
       c.c_heads <- heads);
    c.c_site <- site;
    c.c_first <- first;
    c.c_classes <- classes
  in
  (* The group headed by the point being offered: the point alone, or
     (coalescing) its blindness group. *)
  let group () =
    let i = c.c_point - c.c_first in
    let members =
      match flow with
      | None -> [ (i, List.nth c.c_classes i) ]
      | Some _ -> Option.get c.c_heads.(i)
    in
    { Prune.site = c.c_site;
      members = List.map (fun (i, cls) -> (c.c_first + i, cls)) members;
      first_visit = c.c_first_visit }
  in
  let offer p inject =
    c.c_point <- p;
    match visit group with
    | Pass -> ()
    | Stop -> raise Walk_stop
    | Fork -> (
      match run_at ~threshold:p inject with
      | Error ex -> forked group (Error ex)
      | Ok (r, _) when Option.is_none flow -> forked group (Ok (r, []))
      | Ok (r, _) when r.Marks.timed_out -> (
        let g = group () in
        match List.tl g.Prune.members with
        | [] -> forked group (Ok (r, []))
        | members -> late := Some (g, r, List.map fst members, []))
      | Ok (r, injected_escaped) ->
        forked group (Ok (r, Prune.synthesize (group ()) ~rep_record:r ~injected_escaped)))
  in
  let member p inject =
    match !late with
    | Some (g, rep, t :: left, ran) when t = p -> (
      let finish outcome =
        late := None;
        forked (fun () -> g) outcome
      in
      match run_at ~threshold:p inject with
      | Error ex -> finish (Error ex)
      | Ok (r, _) when left = [] -> finish (Ok (rep, List.rev (r :: ran)))
      | Ok (r, _) -> late := Some (g, rep, left, r :: ran))
    | Some _ | None -> ()
  in
  let w_point p inject =
    last := p;
    try
      match flow with
      | None ->
        ignore (within_max_runs config p);
        offer p inject
      | Some _ -> (
        match c.c_heads.(p - c.c_first) with
        | None -> member p inject (* synthesized, unless its representative timed out *)
        | Some _ ->
          incr n_groups;
          (* the coalescing loop fails over max_runs only after its
             census, so heads past it are not offered *)
          if p <= config.Config.max_runs then offer p inject)
    with ex -> raise (Walk_abort ex)
  in
  state.Injection.walker <- Some { Injection.w_entry; w_point };
  let ending =
    match Compile.run_main ~policy:(snd schedule) vm with
    | _ -> Some Returned
    | exception Vm.Mini_raise e -> Some (Escaped e)
    | exception Walk_abort Walk_stop -> None
    | exception Walk_abort ex -> raise ex
    | exception ex -> (
      (* the failure is the probe's (exact loop, numbered past the last
         point) or the census run's (coalescing, threshold 0) *)
      let threshold =
        if Option.is_some flow then 0 else within_max_runs config (!last + 1)
      in
      match run_error threshold ex with Some err -> raise err | None -> raise ex)
  in
  state.Injection.walker <- None;
  match ending with
  | None -> Stopped
  | Some ending ->
    let frontier = within_max_runs config (!last + 1) in
    let probe, _ =
      record_of ~threshold:frontier ?sched:(sched_info schedule vm) state vm ending
    in
    Finished { probe; points = !last; groups = !n_groups }

let walk_with ?prepare ?run_timeout_s ?flow ?(schedule = coop_schedule) compiled config
    analyzer ~visit ~forked =
  (* the group [visit] saw is the one its fork belongs to *)
  let offered = ref None in
  walk_core ?prepare ?run_timeout_s ?flow ~schedule compiled config analyzer
    ~visit:(fun group ->
      let g = group () in
      offered := Some g;
      visit g)
    ~forked:(fun _ outcome -> forked (Option.get !offered) outcome)

let walk ?prepare ?run_timeout_s ?flow ?(schedule = coop_schedule) compiled config analyzer
    ~baseline_output =
  let records = ref [] (* reversed *) in
  let pending = ref None (* the first representative's failure *) in
  (* neither hook reads the group *)
  let visit _ = if Option.is_some !pending then Pass else Fork in
  let forked _ = function
    | Ok (r, members) -> records := List.rev_append members (r :: !records)
    | Error ex -> if Option.is_none flow then raise ex else pending := Some ex
  in
  match
    walk_core ?prepare ?run_timeout_s ?flow ~schedule compiled config analyzer ~visit
      ~forked
  with
  | Stopped -> assert false (* [visit] never stops *)
  | Finished { probe; points; groups } ->
    Option.iter raise !pending;
    if Option.is_some flow then Obs.add m_points_coalesced (points - groups);
    let runs =
      List.sort
        (fun a b -> compare a.Marks.injection_point b.Marks.injection_point)
        !records
    in
    (runs @ [ probe ], String.equal probe.Marks.output baseline_output)

(* Schedule exploration observability: one tick per (schedule, program)
   detection loop. *)
let m_schedules = Obs.counter "sched.schedules_explored"

(* Uninjected, uninstrumented output of the plain image under a
   schedule — the per-schedule transparency oracle.  (The profile's
   output is exactly this for [Coop].) *)
let baseline_under plain ~prepare policy =
  let vm = Compile.instantiate plain in
  prepare vm;
  ignore (Compile.run_main ~policy vm);
  Vm.output vm

(* The one-time set-up of a detection (see .mli). *)
type setup = {
  s_config : Config.t;
  s_schedules : (string * Sched.policy) list;
  s_coalesce : Exnflow.t option;
  s_analyzer : Analyzer.t;
  s_plain : Compile.image;
  s_profile : Profile.t;
  s_compiled : compiled;
}

let set_up ?(config = Config.default) ?(flavor = Source_weaving) ?prepare ?plain
    ?compiled (program : Ast.program) : setup =
  let concurrent = Minilang.uses_concurrency program in
  (* Coalescing reasons about which handlers are active at a point,
     and with threads present the interleaving can reorder handler
     activity, so it is forced off and every point runs.  Drop stays:
     may-raise sets are per method and do not depend on the
     interleaving. *)
  let config =
    if concurrent && config.Config.prune = Config.Prune_coalesce then
      { config with Config.prune = Config.Prune_off }
    else config
  in
  (* The schedule axis: concurrent programs cross every configured
     schedule with the injection-point axis; sequential programs always
     run the single coop schedule (their behaviour cannot depend on a
     scheduler that never has two runnable threads). *)
  let schedules =
    if not concurrent then [ "coop" ]
    else match config.Config.schedules with [] -> [ "coop" ] | l -> l
  in
  let schedules =
    List.map
      (fun spec ->
        match Sched.policy_of_string spec with
        | Some p -> (spec, p)
        | None -> raise (Detection_error ("unknown schedule spec: " ^ spec)))
      schedules
  in
  let plain = match plain with Some p -> p | None -> Compile.image program in
  (* The exception-flow analysis always runs over the *plain* program,
     even for source weaving: the woven wrapper clauses are
     catch-everything/rethrow and never discriminate on the class, so
     the plain program's handler structure is the one that matters. *)
  let flow =
    match config.Config.prune with
    | Config.Prune_off -> None
    | Config.Prune_drop | Config.Prune_coalesce ->
      Some (Exnflow.analyze plain program)
  in
  let analyzer =
    match config.Config.prune with
    | Config.Prune_drop -> Analyzer.analyze ?flow config program
    | Config.Prune_off | Config.Prune_coalesce ->
      (* Coalescing keeps every point (numbering must match the
         unpruned campaign exactly); only drop filters the sets. *)
      Analyzer.analyze config program
  in
  (match config.Config.prune with
   | Config.Prune_drop ->
     (* Static census: points removed per method relative to the
        unfiltered analysis. *)
     let unfiltered = Analyzer.analyze config program in
     let dropped =
       List.fold_left
         (fun acc id ->
           acc
           + List.length (Analyzer.injectable_for unfiltered id)
           - List.length (Analyzer.injectable_for analyzer id))
         0 (Analyzer.method_ids unfiltered)
     in
     Obs.add m_points_dropped dropped
   | Config.Prune_off | Config.Prune_coalesce -> ());
  let profile =
    match Profile.of_image ?prepare plain with
    | profile -> profile
    | exception Vm.Mini_raise e ->
      raise
        (Detection_error
           (Fmt.str "the uninjected run let %s escape main: %s" e.Vm.exn_class
              e.Vm.message))
  in
  let compiled =
    match compiled with Some c -> c | None -> compile ~plain flavor program
  in
  { s_config = config;
    s_schedules = schedules;
    (* only coalescing needs the flow once the analyzer is built *)
    s_coalesce =
      (match config.Config.prune with
       | Config.Prune_coalesce -> flow
       | Config.Prune_off | Config.Prune_drop -> None);
    s_analyzer = analyzer;
    s_plain = plain;
    s_profile = profile;
    s_compiled = compiled }

(* Runs the complete detection phase (see .mli): one walk per schedule.
   Records of non-coop schedules carry their spec and decision digest,
   and each schedule's probe run checks transparency against that
   schedule's own uninjected baseline. *)
let run ?config ?(flavor = Source_weaving) ?prepare ?plain ?compiled ?run_timeout_s
    (program : Ast.program) : result =
  Obs.span "detect.run" ~attrs:[ ("flavor", flavor_name flavor) ] @@ fun () ->
  let s = set_up ?config ~flavor ?prepare ?plain ?compiled program in
  let profile = s.s_profile in
  let runs, transparent =
    List.fold_left
      (fun (acc, transp) ((spec, policy) as schedule) ->
        Obs.span "detect.schedule" ~attrs:[ ("schedule", spec) ] @@ fun () ->
        Obs.incr m_schedules;
        let baseline_output =
          match policy with
          | Sched.Coop -> profile.Profile.output
          | Sched.Slice _ | Sched.Pct _ ->
            baseline_under s.s_plain ~prepare:(Option.value prepare ~default:ignore) policy
        in
        let runs, t =
          walk ?prepare ?run_timeout_s ?flow:s.s_coalesce ~schedule s.s_compiled
            s.s_config s.s_analyzer ~baseline_output
        in
        (acc @ runs, transp && t))
      ([], true) s.s_schedules
  in
  (* Every reached point got its own record; the probes are the odd
     ones out. *)
  let probes = List.length s.s_schedules in
  Obs.add m_points_total (List.length runs - probes);
  { flavor;
    config = s.s_config;
    analyzer = s.s_analyzer;
    profile;
    runs;
    injections = List.length runs - probes;
    transparent }
