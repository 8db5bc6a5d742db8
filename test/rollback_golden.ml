(* The golden rollback table: committed observables of the atomicity
   wrappers' rollback, checked by test_prod and test_mask.

   Each case pins what a wrapped program lets the outside world see:

   - [produce <app> <flavor>]: a production run (three executions under
     a hot At_exit canary, seed 7) armed from a fresh detection plan —
     an MD5 of the outputs and the scorecard's deterministic core, one
     [row] line per method;
   - [concurrent <app> <spec>]: the same for the concurrent apps, armed
     from a swept detection and run twice under one preemptive schedule
     with a 50% canary (seed 11);
   - [mask-binary <app>] / [mask-source <app>]: a plain run of [main]
     with the app's wrap targets masked by load-time filters
     ({!Mask.attach_masking}) or by the corrected program
     ({!Mask.load_corrected}) — the target count, an MD5 of the output,
     and the result.  Every catalog app has both rows; those with no
     wrap target pin the unmasked run.

   The table was produced under the eager checkpoint (the paper's copy
   of the entry graph) and is reproduced bit-for-bit by the
   copy-on-write checkpoint every wrapper now uses, so it records
   rollback semantics, not one engine's accidents.  To regenerate after
   an intentional change:

     cd test && GOLDEN_UPDATE=1 ../_build/default/test/test_main.exe test prod *)

open Failatom_core
open Failatom_apps
module Minilang = Failatom_minilang.Minilang
module Compile = Failatom_minilang.Compile
module Vm = Failatom_runtime.Vm
module Value = Failatom_runtime.Value
module Sched = Failatom_runtime.Sched
module Plan = Failatom_prod.Plan
module Perturb = Failatom_prod.Perturb
module Scorecard = Failatom_prod.Scorecard
module Produce = Failatom_prod.Produce

let path = Filename.concat "golden" "rollback_runs.txt"
let md5 s = Digest.to_hex (Digest.string s)
let parse_app name = Minilang.parse (Option.get (Registry.find name)).Registry.source

(* Stripped of timings, a scorecard row is deterministic. *)
let core_rows (sc : Scorecard.t) =
  List.map
    (fun (r : Scorecard.meth_row) ->
      Printf.sprintf "%s calls=%d hits=%d fired=%d validated=%d interfered=%d failed=%d"
        (Method_id.to_string r.Scorecard.r_id)
        r.Scorecard.r_calls r.Scorecard.r_hits r.Scorecard.r_fired
        r.Scorecard.r_validated r.Scorecard.r_interfered r.Scorecard.r_failed)
    sc.Scorecard.rows

let plan_of ~config ~flavor program =
  let detection = Detect.run ~config ~flavor program in
  let classification =
    Classify.classify ~exception_free:config.Config.exception_free detection
  in
  Plan.build ~config ~flavor ~program ~detection ~classification

let canary ~seed ~rate_per_mille =
  { Produce.seed;
    rate_per_mille;
    max_fires = None;
    point = Perturb.At_exit;
    fallback_exceptions = [] }

let produce ?config ?policy ~perturb ~times ~plan program =
  match Produce.run ?config ?policy ~perturb ~times ~plan program with
  | Ok r -> r
  | Error msg -> failwith ("production run failed: " ^ msg)

(* A case's lines: the output digest, then one line per scorecard row. *)
let produce_lines key (r : Produce.result) =
  let outputs = List.map (fun (r : Produce.run_report) -> r.Produce.output) r.Produce.runs in
  Printf.sprintf "%s out=%s" key (md5 (String.concat "\000" outputs))
  :: List.map (fun row -> key ^ " row " ^ row) (core_rows r.Produce.scorecard)

let produce_key name flavor = Printf.sprintf "produce %s %s" name (Detect.flavor_name flavor)

(* test_prod's engine-equivalence run. *)
let run_produce name flavor =
  let program = parse_app name in
  let plan = plan_of ~config:Config.default ~flavor program in
  produce ~perturb:(canary ~seed:7 ~rate_per_mille:1000) ~times:3 ~plan program

let produce_cases =
  [ ("LinkedList", Detect.Load_time_filters);
    ("LinkedList", Detect.Source_weaving);
    ("Dynarray", Detect.Load_time_filters);
    ("Dynarray", Detect.Source_weaving);
    ("RBTree", Detect.Load_time_filters) ]

let concurrent_config =
  { Config.default with Config.schedules = [ "coop"; "slice:1"; "slice:2"; "slice:3" ] }

let concurrent_specs = [ "slice:1"; "slice:4"; "pct:3:7" ]
let concurrent_apps = [ "StripedMap"; "BoundedBuffer"; "WorkQueue" ]
let concurrent_key name spec = Printf.sprintf "concurrent %s %s" name spec

(* The swept plan of a concurrent app: the seeded schedule-only
   violations are classified, and therefore wrapped, like any pure
   non-atomic method. *)
let concurrent_plan name =
  let program = parse_app name in
  (program, plan_of ~config:concurrent_config ~flavor:Detect.Load_time_filters program)

(* test_mask's concurrent-production run under one schedule. *)
let run_concurrent (program, plan) spec =
  produce ~config:concurrent_config
    ~policy:(Option.get (Sched.policy_of_string spec))
    ~perturb:(canary ~seed:11 ~rate_per_mille:500)
    ~times:2 ~plan program

let mask_line key targets vm =
  let result =
    match Compile.run_main vm with
    | v -> "value " ^ Value.to_display_string v
    | exception Vm.Mini_raise ev -> "raise " ^ ev.Vm.exn_class
  in
  Printf.sprintf "%s targets=%d out=%s result=%s" key (Method_id.Set.cardinal targets)
    (md5 (Vm.output vm)) (String.escaped result)

let mask_targets name = (Mask.correct (parse_app name)).Mask.wrapped

let masked_binary name targets =
  let vm = Compile.program (parse_app name) in
  Mask.attach_masking Config.default ~targets vm;
  mask_line ("mask-binary " ^ name) targets vm

let masked_source name targets =
  mask_line ("mask-source " ^ name) targets
    (Mask.load_corrected Config.default ~targets (parse_app name))

let catalog_names = List.map (fun (a : Registry.t) -> a.Registry.name) Registry.catalog

(* Every case as [(key, compute)], in table order. *)
let cases : (string * (unit -> string list)) list =
  List.map
    (fun (name, flavor) ->
      let key = produce_key name flavor in
      (key, fun () -> produce_lines key (run_produce name flavor)))
    produce_cases
  @ List.concat_map
      (fun name ->
        let plan = lazy (concurrent_plan name) in
        List.map
          (fun spec ->
            let key = concurrent_key name spec in
            (key, fun () -> produce_lines key (run_concurrent (Lazy.force plan) spec)))
          concurrent_specs)
      concurrent_apps
  @ List.concat_map
      (fun name ->
        let targets = lazy (mask_targets name) in
        [ ("mask-binary " ^ name, fun () -> [ masked_binary name (Lazy.force targets) ]);
          ("mask-source " ^ name, fun () -> [ masked_source name (Lazy.force targets) ]) ])
      catalog_names

let render () =
  String.concat "" (List.concat_map (fun (_, f) -> List.map (fun l -> l ^ "\n") (f ())) cases)

(* A line's case key: its leading words up to the first [=]-field, cut
   before a [row] marker. *)
let case_of_line line =
  let rec leading = function
    | "row" :: _ -> []
    | w :: rest when not (String.contains w '=') -> w :: leading rest
    | _ -> []
  in
  String.concat " " (leading (String.split_on_char ' ' line))

(* The committed lines, in file order; rewritten first when
   GOLDEN_UPDATE is set. *)
let lines =
  lazy
    (if Sys.getenv_opt "GOLDEN_UPDATE" <> None then
       Out_channel.with_open_bin path (fun oc -> output_string oc (render ()));
     In_channel.with_open_bin path In_channel.input_all
     |> String.split_on_char '\n'
     |> List.filter (fun line -> line <> ""))

(* The distinct case keys of the committed table, in file order. *)
let committed_keys () =
  List.fold_left
    (fun acc line ->
      let key = case_of_line line in
      match acc with k :: _ when k = key -> acc | _ -> key :: acc)
    [] (Lazy.force lines)
  |> List.rev

let committed key = List.filter (fun line -> case_of_line line = key) (Lazy.force lines)

(* Checks one case's lines against the table. *)
let check_lines key actual =
  match committed key with
  | [] -> Alcotest.failf "no case %S in %s" key path
  | expected -> Alcotest.(check (list string)) key expected actual

(* Checks one case by recomputing it. *)
let check key = check_lines key ((List.assoc key cases) ())
