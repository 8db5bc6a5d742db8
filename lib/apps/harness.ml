(* Convenience harness: run the full detection pipeline on a workload
   application and collect the per-app statistics used by Table 1 and
   Figures 2-4. *)

open Failatom_core

type outcome = {
  app : Registry.t;
  detection : Detect.result;
  classification : Classify.t;
  report : Report.app_result;
}

let flavor_of_suite = function
  | Registry.Cpp -> Detect.Source_weaving (* the paper's C++ path *)
  | Registry.Java -> Detect.Load_time_filters (* the paper's Java path *)
  | Registry.Conc -> Detect.Load_time_filters (* concurrent analogues *)

let detect_app ?(config = Config.default) ?flavor (app : Registry.t) : outcome =
  let flavor =
    match flavor with Some f -> f | None -> flavor_of_suite app.Registry.suite
  in
  let program = Failatom_minilang.Minilang.parse app.Registry.source in
  let detection = Detect.run ~config ~flavor program in
  let classification =
    Classify.classify ~exception_free:config.Config.exception_free detection
  in
  let report =
    Report.of_detection ~app_name:app.Registry.name
      ~language:(Registry.suite_name app.Registry.suite)
      detection classification
  in
  { app; detection; classification; report }

(* Runs an application standalone (no instrumentation); returns its
   output.  Raises if the program is malformed or fails. *)
let run_app (app : Registry.t) =
  Failatom_minilang.Minilang.run_string app.Registry.source
