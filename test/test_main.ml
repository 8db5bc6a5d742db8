(* Test entry point: one Alcotest run covering every module. *)

let () =
  Alcotest.run "failatom"
    [ ("heap", Test_heap.suite);
      ("object-graph", Test_object_graph.suite);
      ("checkpoint-gc", Test_checkpoint.suite);
      ("vm", Test_vm.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("interp", Test_interp.suite);
      ("sched", Test_sched.suite);
      ("compile-image", Test_compile_image.suite);
      ("bytecode", Test_bytecode.suite);
      ("static-check", Test_static_check.suite);
      ("conformance", Test_conformance.suite);
      ("weaver", Test_weaver.suite);
      ("injection", Test_injection.suite);
      ("detect", Test_detect.suite);
      ("prefix-walk", Test_prefix_walk.suite);
      ("concurrent-detect", Test_concurrent_detect.suite);
      ("classify", Test_classify.suite);
      ("mask", Test_mask.suite);
      ("prod", Test_prod.suite);
      ("composition", Test_composition.suite);
      ("random-pipeline", Test_random_pipeline.suite);
      ("purity", Test_purity.suite);
      ("exnflow", Test_exnflow.suite);
      ("run-log", Test_run_log.suite);
      ("trace", Test_trace.suite);
      ("invariants", Test_invariants.suite);
      ("coverage", Test_coverage.suite);
      ("report", Test_report.suite);
      ("apps", Test_apps.suite);
      ("app-behavior", Test_app_behavior.suite);
      ("snapshot", Test_snapshot.suite);
      ("campaign", Test_campaign.suite);
      ("obs", Test_obs.suite);
      ("server", Test_server.suite) ]
