(** Convenience harness: run the full detection pipeline on a workload
    application and collect the per-app statistics behind Table 1 and
    Figures 2–4. *)

open Failatom_core

type outcome = {
  app : Registry.t;
  detection : Detect.result;
  classification : Classify.t;
  report : Report.app_result;
}

val flavor_of_suite : Registry.suite -> Detect.flavor
(** C++ apps run the source-weaving flavor, Java apps the load-time
    filter flavor — matching the paper's two implementations. *)

val detect_app : ?config:Config.t -> ?flavor:Detect.flavor -> Registry.t -> outcome

val run_app : Registry.t -> string
(** Runs an application standalone (no instrumentation) and returns its
    output.  Raises if the program is malformed or fails. *)
