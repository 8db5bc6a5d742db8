(* detect-sweep: the three concurrent apps under a schedule sweep —
   coop, slice:1..3 and four specs drawn from the seed (two slice:,
   two pct:), drawn afresh for every pass: one schedule can cost a
   quarter more or less than another, and many draws per run keep that
   from reading as run-to-run spread.  Pruning is off here (the
   detector forces it off for concurrent programs), and [Sched] and the
   per-schedule baselines run nowhere else; this is where a
   single-trace checker must show its gain.  Each operation is one
   swept [Detect.run] plus [Classify.classify]; the check is that every
   seeded probe is pure non-atomic. *)

open Failatom_core
open Failatom_apps
open Common

let probes =
  [ ("StripedMap", "snapshotTotal"); ("BoundedBuffer", "audit"); ("WorkQueue", "progress") ]

let base_specs = [ "coop"; "slice:1"; "slice:2"; "slice:3" ]

let seeded_specs seed pass =
  let st = rng seed (1000 + pass) in
  let draw () = 4 + Random.State.int st 1_000_000 in
  let slice () = Printf.sprintf "slice:%d" (draw ()) in
  let pct () = Printf.sprintf "pct:%d:%d" (2 + Random.State.int st 2) (draw ()) in
  base_specs @ [ slice (); slice (); pct (); pct () ]

(* One pass (3 apps x 8 schedules) takes ~1.2 s on the reference machine. *)
let passes_per_second = 0.75

let check name meth (d : Detect.result) c =
  d.Detect.transparent
  && Classify.verdict c (Method_id.make name meth) = Some Classify.Pure_non_atomic

(* Set-up: parse, and run each app uninjected under every schedule of
   the sweep ([Detect.baseline_under], the per-schedule transparency
   oracle) so a spec that deadlocks or fails shows before timing.  One
   target per app and pass. *)
let prepare specs_of_pass passes =
  let target specs (name, meth) =
    let app = Option.get (Registry.find name) in
    let program =
      Spans.with_span "minilang.parse" (fun _ ->
          Failatom_minilang.Minilang.parse app.Registry.source)
    in
    let image = Failatom_minilang.Compile.image program in
    List.iter
      (fun spec ->
        let policy = Option.get (Failatom_runtime.Sched.policy_of_string spec) in
        Spans.with_span "core.baseline" (fun _ ->
            ignore (Detect.baseline_under image ~prepare:ignore policy)))
      specs;
    { Detect_loop.name;
      program;
      flavor = Harness.flavor_of_suite app.Registry.suite;
      config = { Config.default with Config.prune = Config.Prune_coalesce; schedules = specs };
      check = check name meth }
  in
  List.init passes (fun pass -> List.map (target (specs_of_pass pass)) probes)

let run ~seed ~seconds ~trace =
  let passes = work_units ~seconds ~per_second:passes_per_second in
  let per_pass, setup =
    repeat_setup ~reps:5 (fun () ->
        with_tracing trace (fun () -> prepare (seeded_specs seed) passes))
  in
  let o = Detect_loop.run ~seed ~trace ~op_name:"detect-sweep.op" per_pass in
  let spans = Spans.all () in
  Detect_loop.result ~setup
    ~extra_layer:
      [ m "minilang.parse_ms" (ms_of_ns (Spans.total_ns "minilang.parse" spans)) "ms";
        m "core.baseline_ms" (ms_of_ns (Spans.total_ns "core.baseline" spans)) "ms" ]
    ~info:
      [ ("passes", string_of_int passes);
        ("schedules_per_app", string_of_int (List.length (seeded_specs seed 0))) ]
    o
