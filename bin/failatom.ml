(* failatom — command-line front end for the detection/masking pipeline.

   Programs are given either as a path to a MiniLang source file or as
   [app:NAME] to use one of the bundled workload applications (the
   paper's Table 1 programs); [failatom apps] lists them.

   Exit codes are uniform across subcommands (see [exits] below):
   0 success, 1 detection found failure non-atomic methods, 2 usage
   error, 3 internal or server error.  Actions return the code; the
   final [Cmd.eval_value] match maps cmdliner's own parse errors to 2
   and uncaught exceptions to 3. *)

open Cmdliner
open Failatom_core
open Failatom_apps
module ML = Failatom_minilang
module Prod = Failatom_prod
module Server = Failatom_server.Server
module Client = Failatom_server.Client
module Protocol = Failatom_server.Protocol
module Cache = Failatom_server.Cache
module Store = Failatom_server.Store

(* ---------------- exit codes ---------------- *)

let exit_ok = 0
let exit_non_atomic = 1
let exit_usage = 2
let exit_internal = 3

let exits =
  [ Cmd.Exit.info exit_ok ~doc:"on success (and, for detection commands, no failure non-atomic method was found).";
    Cmd.Exit.info exit_non_atomic
      ~doc:"detection completed and found failure non-atomic methods (or $(b,mask --verify) found residual ones).";
    Cmd.Exit.info exit_usage
      ~doc:"usage error: bad command line, unreadable input, malformed program, log or journal.";
    Cmd.Exit.info exit_internal
      ~doc:"internal error: a detection run aborted, or a server/protocol failure." ]

(* ---------------- program loading ---------------- *)

let load_source spec =
  if String.length spec > 4 && String.sub spec 0 4 = "app:" then
    let name = String.sub spec 4 (String.length spec - 4) in
    match Registry.find name with
    | Some app -> Ok app.Registry.source
    | None -> Error (Printf.sprintf "unknown bundled application %S" name)
  else if Sys.file_exists spec then (
    let ic = open_in_bin spec in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s)
  else Error (Printf.sprintf "no such file: %s" spec)

let parse_program source =
  match ML.Minilang.parse source with
  | program -> Ok program
  | exception ML.Lexer.Lex_error (msg, pos) ->
    Error (Fmt.str "lexical error at %a: %s" ML.Ast.pp_pos pos msg)
  | exception ML.Parser.Parse_error (msg, pos) ->
    Error (Fmt.str "syntax error at %a: %s" ML.Ast.pp_pos pos msg)
  | exception ML.Static_check.Check_error errors ->
    Error
      (Fmt.str "static errors:@.%a"
         Fmt.(list ~sep:cut ML.Static_check.pp_error)
         errors)

let with_program spec f =
  match Result.bind (load_source spec) parse_program with
  | Ok program -> f program
  | Error msg ->
    Fmt.epr "failatom: %s@." msg;
    exit_usage

(* ---------------- common options ---------------- *)

let program_arg =
  let doc = "MiniLang source file, or app:NAME for a bundled application." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let flavor_conv =
  Arg.enum [ ("source", Detect.Source_weaving); ("binary", Detect.Load_time_filters) ]

let flavor_doc =
  "Instrumentation flavor: $(b,source) rewrites the program text (the \
   paper's AspectC++/C++ path), $(b,binary) attaches load-time filters to \
   the compiled program (the paper's JWG/Java path)."

let flavor_arg =
  Arg.(
    value
    & opt flavor_conv Detect.Source_weaving
    & info [ "flavor" ] ~docv:"FLAVOR" ~doc:flavor_doc)

let details_arg =
  let doc = "Print the per-method verdicts, call counts and diff paths." in
  Arg.(value & flag & info [ "details" ] ~doc)

let method_list_conv =
  let parse s =
    match String.index_opt s '.' with
    | Some i ->
      Ok
        (Method_id.make (String.sub s 0 i) (String.sub s (i + 1) (String.length s - i - 1)))
    | None -> Error (`Msg (Printf.sprintf "%S is not of the form Class.method" s))
  in
  Arg.conv (parse, fun ppf id -> Fmt.string ppf (Method_id.to_string id))

let exception_free_arg =
  let doc =
    "Declare a method (Class.method) exception-free: injections whose site it \
     was are discarded before classification (repeatable)."
  in
  Arg.(value & opt_all method_list_conv [] & info [ "exception-free" ] ~docv:"M" ~doc)

let do_not_wrap_arg =
  let doc = "Exclude a method (Class.method) from masking (repeatable)." in
  Arg.(value & opt_all method_list_conv [] & info [ "do-not-wrap" ] ~docv:"M" ~doc)

let log_arg =
  let doc = "Write the detection run log (wrapper marks + call profile) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)

let wrap_all_arg =
  let doc =
    "Wrap every failure non-atomic method instead of only the pure ones."
  in
  Arg.(value & flag & info [ "wrap-all" ] ~doc)

let run_timeout_arg =
  let doc =
    "Abort any single detection run after $(docv) seconds of wall-clock time \
     and record it as timed out instead of wedging a worker.  Each injected \
     run then executes on a fresh VM under that budget instead of being \
     forked off the walk of the uninjected run.  A timed-out run never ends \
     the detection loop."
  in
  Arg.(value & opt (some float) None & info [ "run-timeout" ] ~docv:"SECONDS" ~doc)

let prune_conv =
  Arg.enum
    [ ("off", Config.Prune_off);
      ("drop", Config.Prune_drop);
      ("coalesce", Config.Prune_coalesce) ]

(* The CLI defaults to coalesce — it is mark-for-mark identical to off,
   just cheaper — while Config.default stays off so library callers and
   the wire protocol only prune on request. *)
let prune_arg =
  let doc =
    "Static exception-flow pruning of the injection campaign: $(b,off) runs \
     every injection point; $(b,coalesce) (the default) runs one \
     representative per group of points every possibly-active handler is \
     blind to and synthesizes the rest — marks are bitwise-identical to \
     $(b,off); $(b,drop) instead removes the points whose exception the \
     method provably cannot raise (the paper's future-work inference of \
     exception-free code), which renumbers the remaining points: a \
     semantic mode.  Concurrent programs run $(b,coalesce) as $(b,off) \
     but apply $(b,drop)."
  in
  Arg.(value & opt prune_conv Config.Prune_coalesce & info [ "prune" ] ~docv:"MODE" ~doc)

let schedules_arg =
  let doc =
    "Schedule exploration for concurrent programs (those using $(b,spawn)): \
     $(docv) is either a count $(b,N) — the cooperative baseline plus \
     preemptive schedules slice:1 .. slice:N-1 — or $(b,pct-sweep) — the \
     cooperative baseline plus PCT priority schedules pct:D:S for depths \
     1-3 and seeds 1-3 — or an explicit comma-separated list of schedule \
     specs ($(b,coop), $(b,slice:<seed>), $(b,pct:<depth>:<seed>)).  Every \
     schedule is crossed with the whole injection-point axis.  Ignored for \
     sequential programs, which always run the single cooperative schedule."
  in
  Arg.(value & opt (some string) None & info [ "schedules" ] ~docv:"SPEC" ~doc)

(* Expands the --schedules argument into the Config.schedules spec list.
   The first spec is always coop: it is the baseline the per-schedule
   probes of the other schedules are compared around, and it keeps a
   concurrent campaign's first phase identical to the unexplored run. *)
let expand_schedules = function
  | None -> Ok Config.default.Config.schedules
  | Some "pct-sweep" ->
    Ok
      ("coop"
      :: List.concat_map
           (fun d -> List.map (fun s -> Printf.sprintf "pct:%d:%d" d s) [ 1; 2; 3 ])
           [ 1; 2; 3 ])
  | Some spec -> (
    match int_of_string_opt spec with
    | Some n when n >= 1 ->
      Ok ("coop" :: List.init (n - 1) (fun i -> Printf.sprintf "slice:%d" (i + 1)))
    | Some _ -> Error "--schedules count must be at least 1"
    | None ->
      let specs = String.split_on_char ',' spec in
      let bad =
        List.filter
          (fun s ->
            Option.is_none (Failatom_runtime.Sched.policy_of_string s))
          specs
      in
      if bad = [] then Ok specs
      else Error ("unknown schedule spec " ^ String.concat ", " bad))

let metrics_out_arg =
  let doc =
    "Enable the observability layer for this invocation and write the final \
     metrics snapshot (counters, gauges, span histograms) to $(docv) as \
     failatom.metrics/1 JSON.  Render it with $(b,failatom stats)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Runs [f] with metrics enabled iff [metrics_out] is set, then writes
   the snapshot.  The snapshot is taken in a Fun.protect finalizer so a
   failing detection still leaves its partial metrics on disk. *)
let with_metrics metrics_out f =
  match metrics_out with
  | None -> f ()
  | Some path ->
    Failatom_obs.Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        let oc = open_out path in
        output_string oc (Failatom_obs.Obs.to_json (Failatom_obs.Obs.snapshot ()));
        output_char oc '\n';
        close_out oc;
        Fmt.epr "metrics written to %s@." path)
      f

let config_of ~exception_free ~do_not_wrap ~wrap_all =
  { Config.default with
    Config.exception_free;
    do_not_wrap;
    wrap_policy = (if wrap_all then Config.Wrap_all_non_atomic else Config.Wrap_pure) }

let classification_code classification =
  if Classify.non_atomic_methods classification = [] then exit_ok else exit_non_atomic

(* ---------------- commands ---------------- *)

let run_cmd =
  let times_arg =
    let doc =
      "Run the program $(docv) times.  The program is compiled to an image \
       once; every repetition instantiates a fresh VM from it, so repeated \
       runs pay only the per-run cost (useful for timing the interpreter)."
    in
    Arg.(value & opt int 1 & info [ "times" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let doc =
      "$(b,normal) just runs the program; $(b,production) arms the atomicity \
       wrappers recorded in $(b,--plan) before running — always-on masking \
       without re-running detection — and reports the resilience scorecard."
    in
    Arg.(
      value
      & opt (Arg.enum [ ("normal", `Normal); ("production", `Production) ]) `Normal
      & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let plan_arg =
    let doc =
      "Detection plan (written by $(b,detect --emit-plan)) to arm wrappers \
       from.  Refused if its program digest does not match $(i,PROGRAM)."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let perturb_rate_arg =
    let doc =
      "Canary perturbation: inject a declared exception into $(docv) out of \
       every 1000 calls to a wrapped method, validate that the rollback \
       reproduced the pre-call object graph, and transparently retry.  \
       0 (the default) disables the canary."
    in
    Arg.(value & opt int 0 & info [ "perturb-rate" ] ~docv:"PER-MILLE" ~doc)
  in
  let perturb_seed_arg =
    let doc = "Seed of the canary's deterministic draw sequence." in
    Arg.(value & opt int 1 & info [ "perturb-seed" ] ~docv:"SEED" ~doc)
  in
  let perturb_max_arg =
    let doc = "Stop injecting after $(docv) perturbations (default unlimited)." in
    Arg.(value & opt (some int) None & info [ "perturb-max" ] ~docv:"N" ~doc)
  in
  let perturb_point_arg =
    let doc =
      "Where the canary raises: $(b,entry) (before the body runs) or \
       $(b,exit) (after the body ran and mutated state — exercises a real \
       rollback; the retry re-executes the body, so output side effects of \
       perturbed calls occur twice)."
    in
    Arg.(
      value
      & opt
          (Arg.enum [ ("entry", Prod.Perturb.At_entry); ("exit", Prod.Perturb.At_exit) ])
          Prod.Perturb.At_exit
      & info [ "perturb-point" ] ~docv:"POINT" ~doc)
  in
  let resilience_out_arg =
    let doc =
      "Write the resilience scorecard (failatom.resilience/1) to $(docv).  \
       The write is atomic: a crash mid-run never leaves a torn file.  \
       Render it with $(b,failatom stats --resilience)."
    in
    Arg.(value & opt (some string) None & info [ "resilience-out" ] ~docv:"FILE" ~doc)
  in
  let run_normal program times =
    let image = ML.Compile.image program in
    let last_output = ref "" in
    for _ = 1 to times do
      let vm = ML.Compile.instantiate image in
      (match ML.Compile.run_main vm with
       | _ -> ()
       | exception Failatom_runtime.Vm.Mini_raise e ->
         Fmt.epr "uncaught %s: %s@." e.Failatom_runtime.Vm.exn_class
           e.Failatom_runtime.Vm.message);
      last_output := ML.Minilang.output vm
    done;
    print_string !last_output;
    exit_ok
  in
  let run_production program times ~plan_path ~perturb ~resilience_out =
    match Prod.Plan.load_file plan_path with
    | Error msg ->
      Fmt.epr "failatom: %s: %s@." plan_path msg;
      exit_usage
    | Ok plan -> (
      match Prod.Produce.run ?perturb ~times ~plan program with
      | Error msg ->
        (* stale plan: the program changed since detection *)
        Fmt.epr "failatom: %s@." msg;
        exit_usage
      | Ok { Prod.Produce.scorecard; runs } ->
        (match List.rev runs with
         | last :: _ -> print_string last.Prod.Produce.output
         | [] -> ());
        List.iter
          (fun (r : Prod.Produce.run_report) ->
            match r.Prod.Produce.escaped with
            | Some cls -> Fmt.epr "uncaught %s escaped a production run@." cls
            | None -> ())
          runs;
        Fmt.epr "%a" Prod.Scorecard.pp scorecard;
        (match resilience_out with
         | Some path ->
           Prod.Scorecard.save_file scorecard path;
           Fmt.epr "resilience scorecard written to %s@." path
         | None -> ());
        if Prod.Scorecard.failed scorecard > 0 then exit_non_atomic else exit_ok)
  in
  let action spec times mode plan perturb_rate perturb_seed
      perturb_max perturb_point resilience_out metrics_out =
    with_program spec (fun program ->
        if times < 1 then begin
          Fmt.epr "failatom: --times must be at least 1@.";
          exit_usage
        end
        else
          match (mode, plan) with
          | `Normal, Some _ ->
            Fmt.epr "failatom: --plan requires --mode production@.";
            exit_usage
          | `Normal, None -> with_metrics metrics_out (fun () -> run_normal program times)
          | `Production, None ->
            Fmt.epr "failatom: --mode production requires --plan@.";
            exit_usage
          | `Production, Some plan_path ->
            let perturb =
              if perturb_rate > 0 then
                Some
                  { Prod.Produce.seed = perturb_seed;
                    rate_per_mille = perturb_rate;
                    max_fires = perturb_max;
                    point = perturb_point;
                    fallback_exceptions = [] }
              else None
            in
            with_metrics metrics_out (fun () ->
                run_production program times ~plan_path ~perturb
                  ~resilience_out))
  in
  let doc =
    "Run a MiniLang program and print its output; with $(b,--mode \
     production) run it behind the armed atomicity wrappers of a detection \
     plan."
  in
  Cmd.v (Cmd.info "run" ~doc ~exits)
    Term.(
      const action $ program_arg $ times_arg $ mode_arg $ plan_arg
      $ perturb_rate_arg $ perturb_seed_arg $ perturb_max_arg
      $ perturb_point_arg $ resilience_out_arg $ metrics_out_arg)

let csv_arg =
  let doc = "Write the per-method classification as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let coverage_arg =
  let doc = "Print per-method injection coverage and never-called methods." in
  Arg.(value & flag & info [ "coverage" ] ~doc)

(* The human-readable classification block shared by detect/campaign. *)
let print_classification ~details classification =
  let counts = Classify.method_counts classification in
  Fmt.pr "discarded runs:   %d@." classification.Classify.discarded_runs;
  Fmt.pr "methods used:     %d (atomic %d, conditional %d, pure %d)@."
    (Classify.total counts) counts.Classify.atomic counts.Classify.conditional
    counts.Classify.pure;
  if details then Report.pp_details Fmt.stdout classification
  else
    List.iter
      (fun id ->
        let verdict = Option.get (Classify.verdict classification id) in
        Fmt.pr "  %-36s %s@." (Method_id.to_string id) (Classify.verdict_name verdict))
      (Classify.non_atomic_methods classification)

let write_csv csv classification =
  match csv with
  | Some path ->
    let oc = open_out path in
    output_string oc (Report.classification_to_csv classification);
    close_out oc;
    Fmt.epr "classification CSV written to %s@." path
  | None -> ()

let emit_plan_arg =
  let doc =
    "Write the detection plan (failatom.plan/1: program digest, configuration \
     fingerprint, wrap targets, per-method verdicts) to $(docv).  \
     $(b,failatom run --mode production --plan) arms wrappers from it \
     without re-running detection."
  in
  Arg.(value & opt (some string) None & info [ "emit-plan" ] ~docv:"FILE" ~doc)

let detect_cmd =
  let action spec flavor prune schedules details exception_free log
      coverage csv metrics_out emit_plan =
    match expand_schedules schedules with
    | Error msg ->
      Fmt.epr "failatom: %s@." msg;
      exit_usage
    | Ok schedules ->
    with_program spec (fun program ->
        let config = { Config.default with Config.prune; schedules } in
        match
          with_metrics metrics_out (fun () -> Detect.run ~config ~flavor program)
        with
        | exception Detect.Detection_error msg ->
          Fmt.epr "failatom: %s@." msg;
          exit_internal
        | detection ->
          (match log with
           | Some path ->
             Run_log.save_file detection path;
             Fmt.epr "run log written to %s@." path
           | None -> ());
          let classification = Classify.classify ~exception_free detection in
          Fmt.pr "flavor:           %s@." (Detect.flavor_name flavor);
          Fmt.pr "injections:       %d@." detection.Detect.injections;
          Fmt.pr "transparent:      %b@." detection.Detect.transparent;
          print_classification ~details classification;
          if coverage then Coverage.pp Fmt.stdout (Coverage.of_detection detection);
          write_csv csv classification;
          (match emit_plan with
           | Some path ->
             (* exception_free is folded into the plan's config so the
                recorded fingerprint describes the classification the
                targets were chosen under *)
             let plan_config = { config with Config.exception_free } in
             let plan =
               Prod.Plan.build ~config:plan_config ~flavor ~program ~detection
                 ~classification
             in
             Prod.Plan.save_file plan path;
             Fmt.epr "detection plan written to %s@." path
           | None -> ());
          classification_code classification)
  in
  let doc =
    "Detection phase: inject exceptions at every injection point and classify \
     each method as atomic, conditional non-atomic or pure non-atomic."
  in
  Cmd.v
    (Cmd.info "detect" ~doc ~exits)
    Term.(
      const action $ program_arg $ flavor_arg $ prune_arg
      $ schedules_arg $ details_arg $ exception_free_arg $ log_arg
      $ coverage_arg $ csv_arg $ metrics_out_arg $ emit_plan_arg)

let campaign_cmd =
  let jobs_arg =
    let doc =
      "Number of worker domains (0 = one per available core, capped at 8).  Every \
       worker repeats the uninjected run, so a campaign runs at most one worker \
       per core ($(b,Domain.recommended_domain_count)), whatever $(docv) says; \
       results and journals do not depend on it."
    in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let journal_arg =
    let doc =
      "Append every completed run to $(docv) as it finishes (each record is \
       fsynced), so a killed campaign can be resumed with $(b,--resume)."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Adopt the runs already recorded in the $(b,--journal) file and execute \
       only the missing thresholds."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let action spec flavor prune schedules jobs journal resume run_timeout_s
      details exception_free log csv metrics_out =
    match expand_schedules schedules with
    | Error msg ->
      Fmt.epr "failatom: %s@." msg;
      exit_usage
    | Ok schedules ->
    with_program spec (fun program ->
        if resume && journal = None then begin
          Fmt.epr "failatom: --resume requires --journal@.";
          exit_usage
        end
        else begin
          let jobs =
            if jobs <= 0 then Failatom_campaign.Campaign.default_jobs () else jobs
          in
          let report = Failatom_campaign.Progress.reporter Fmt.stderr in
          let config = { Config.default with Config.prune; schedules } in
          match
            with_metrics metrics_out (fun () ->
                Failatom_campaign.Campaign.run ~config ~flavor ?run_timeout_s ~jobs
                  ?journal ~resume ~report program)
          with
          | exception Failatom_campaign.Campaign.Campaign_error msg ->
            Fmt.epr "failatom: %s@." msg;
            exit_usage
          | exception Detect.Detection_error msg ->
            Fmt.epr "failatom: %s@." msg;
            exit_internal
          | detection, summary ->
            (match log with
             | Some path ->
               Run_log.save_file detection path;
               Fmt.epr "run log written to %s@." path
             | None -> ());
            let classification = Classify.classify ~exception_free detection in
            Fmt.pr "flavor:           %s@." (Detect.flavor_name flavor);
            Fmt.pr "workers:          %d@." summary.Failatom_campaign.Progress.workers;
            Fmt.pr "injections:       %d@." detection.Detect.injections;
            Fmt.pr "transparent:      %b@." detection.Detect.transparent;
            print_classification ~details classification;
            write_csv csv classification;
            classification_code classification
        end)
  in
  let doc =
    "Detection phase as a parallel, resumable campaign: worker domains walk \
     the program and run the injection points they claim; every run is \
     journaled to disk, and the runs merge into a classification identical \
     to $(b,detect)'s."
  in
  Cmd.v
    (Cmd.info "campaign" ~doc ~exits)
    Term.(
      const action $ program_arg $ flavor_arg $ prune_arg
      $ schedules_arg $ jobs_arg $ journal_arg $ resume_arg $ run_timeout_arg
      $ details_arg $ exception_free_arg $ log_arg $ csv_arg $ metrics_out_arg)

let weave_cmd =
  let action spec =
    with_program spec (fun program ->
        print_string
          (ML.Pretty.program_to_string (Source_weaver.weave_injection program));
        exit_ok)
  in
  let doc = "Print the exception injector program P_I (woven source)." in
  Cmd.v (Cmd.info "weave" ~doc ~exits) Term.(const action $ program_arg)

let mask_cmd =
  let action spec flavor exception_free do_not_wrap wrap_all show_source
      verify =
    with_program spec (fun program ->
        let config = config_of ~exception_free ~do_not_wrap ~wrap_all in
        match Mask.correct ~config ~flavor program with
        | exception Detect.Detection_error msg ->
          Fmt.epr "failatom: %s@." msg;
          exit_internal
        | outcome ->
          Fmt.epr "wrapped %d method(s):@." (Method_id.Set.cardinal outcome.Mask.wrapped);
          Method_id.Set.iter
            (fun id -> Fmt.epr "  %s@." (Method_id.to_string id))
            outcome.Mask.wrapped;
          if show_source then
            print_string (ML.Pretty.program_to_string outcome.Mask.corrected);
          if verify then begin
            (* re-run detection on P_C: no original-name method may remain
               failure non-atomic *)
            match
              Detect.run ~config ~flavor
                ~prepare:(Mask.register_hooks config)
                outcome.Mask.corrected
            with
            | exception Detect.Detection_error msg ->
              Fmt.epr "failatom: verification: %s@." msg;
              exit_internal
            | d2 -> (
              let residual =
                List.filter
                  (fun (id : Method_id.t) ->
                    Source_weaver.demangle id.Method_id.name = None)
                  (Classify.non_atomic_methods (Classify.classify d2))
              in
              match residual with
              | [] ->
                Fmt.epr "verification: %d re-injections, no residual non-atomic method@."
                  d2.Detect.injections;
                exit_ok
              | methods ->
                Fmt.epr "verification FAILED, residual non-atomic methods:@.";
                List.iter (fun id -> Fmt.epr "  %s@." (Method_id.to_string id)) methods;
                exit_non_atomic)
          end
          else exit_ok)
  in
  let show_source_arg =
    let doc = "Print the corrected program P_C to stdout." in
    Arg.(value & flag & info [ "print-corrected" ] ~doc)
  in
  let verify_arg =
    let doc =
      "Re-run the detection phase on the corrected program and fail unless \
       every residual method is failure atomic."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let doc =
    "Full pipeline (Figure 1): detect failure non-atomic methods, then wrap \
     them in atomicity wrappers, producing the corrected program P_C."
  in
  Cmd.v (Cmd.info "mask" ~doc ~exits)
    Term.(
      const action $ program_arg $ flavor_arg $ exception_free_arg
      $ do_not_wrap_arg $ wrap_all_arg $ show_source_arg $ verify_arg)

let classify_cmd =
  let log_file_arg =
    let doc = "A run log previously written by detect --log." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG" ~doc)
  in
  let action path details exception_free =
    match Run_log.load_file path with
    | exception Run_log.Bad_log (msg, line) ->
      Fmt.epr "failatom: %s: line %d: %s@." path line msg;
      exit_usage
    | log when log.Run_log.runs = [] ->
      (* every real detection log has at least the probe run *)
      Fmt.epr "failatom: %s: no runs recorded (not a run log?)@." path;
      exit_usage
    | log ->
      let classification = Run_log.classify ~exception_free log in
      Fmt.pr "flavor:           %s@." log.Run_log.flavor;
      Fmt.pr "runs:             %d@." (List.length log.Run_log.runs);
      print_classification ~details classification;
      classification_code classification
  in
  let doc =
    "Offline classification from a run log (the paper's Step 3: wrapper log \
     files processed offline), without re-running any injections."
  in
  Cmd.v (Cmd.info "classify" ~doc ~exits)
    Term.(const action $ log_file_arg $ details_arg $ exception_free_arg)

let profile_cmd =
  let times_arg =
    let doc = "Run the program $(docv) times to accumulate counts." in
    Arg.(value & opt int 1 & info [ "times" ] ~docv:"N" ~doc)
  in
  let flame_arg =
    let doc =
      "Write the profile to $(docv) in folded-stack format (one \
       $(i,frame;frame value) line per stack — flamegraph.pl / speedscope \
       input).  Opcode lines carry dispatch counts under an $(b,interp) \
       root; span lines carry total nanoseconds per observability span."
    in
    Arg.(value & opt (some string) None & info [ "flame" ] ~docv:"FILE" ~doc)
  in
  let action spec times flame =
    with_program spec (fun program ->
        let module Exec = Failatom_runtime.Exec in
        let module Obs = Failatom_obs.Obs in
        if times < 1 then begin
          Fmt.epr "failatom: --times must be at least 1@.";
          exit_usage
        end
        else begin
          Obs.set_enabled true;
          Exec.reset_profile ();
          Exec.profiling := true;
          let image = Obs.span "compile.image" (fun () -> ML.Compile.image program) in
          for _ = 1 to times do
            let vm = ML.Compile.instantiate image in
            Obs.span "vm.run" (fun () ->
                match ML.Compile.run_main vm with
                | _ -> ()
                | exception Failatom_runtime.Vm.Mini_raise e ->
                  Fmt.epr "uncaught %s: %s@." e.Failatom_runtime.Vm.exn_class
                    e.Failatom_runtime.Vm.message)
          done;
          Exec.profiling := false;
          let total = Array.fold_left ( + ) 0 Exec.op_counts in
          Fmt.pr "dispatches:       %d (%d run(s))@." total times;
          let ranked =
            List.sort
              (fun (_, a) (_, b) -> compare b a)
              (List.init Exec.n_ops (fun i ->
                   (Exec.op_names.(i), Exec.op_counts.(i))))
          in
          List.iteri
            (fun rank (name, count) ->
              if rank < 20 && count > 0 then
                Fmt.pr "  %-12s %9d  %5.1f%%@." name count
                  (100.0 *. float_of_int count /. float_of_int (max 1 total)))
            ranked;
          (match flame with
           | Some path ->
             let oc = open_out path in
             output_string oc (Exec.folded_profile (Obs.snapshot ()));
             close_out oc;
             Fmt.epr "folded profile written to %s@." path
           | None -> ());
          exit_ok
        end)
  in
  let doc =
    "Run a program under the bytecode engine with opcode profiling and print \
     the hottest instructions; $(b,--flame) also writes a folded-stack file \
     combining per-opcode dispatch counts with per-phase span timings."
  in
  Cmd.v (Cmd.info "profile" ~doc ~exits)
    Term.(const action $ program_arg $ times_arg $ flame_arg)

let trace_cmd =
  let action spec =
    with_program spec (fun program ->
        let trace, output, escaped = Trace.run_traced program in
        Trace.pp Fmt.stdout trace;
        Fmt.pr "--- output ---@.%s" output;
        (match escaped with
         | Some exn_class -> Fmt.pr "--- escaped: %s ---@." exn_class
         | None -> ());
        exit_ok)
  in
  let doc = "Run a program under call tracing and print the dynamic call tree." in
  Cmd.v (Cmd.info "trace" ~doc ~exits) Term.(const action $ program_arg)

(* ---------------- the daemon and its clients ---------------- *)

let socket_arg =
  let doc = "Path of the daemon's Unix-domain socket." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let workers_arg =
  let doc = "Executor threads running submitted jobs concurrently." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let max_queue_arg =
  let doc = "Reject submissions once $(docv) jobs are queued (admission control)." in
  Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)

let job_timeout_arg =
  let doc =
    "Per-job wall-clock deadline: a job still running after $(docv) seconds \
     is aborted and reported as timed out."
  in
  Arg.(value & opt (some float) None & info [ "job-timeout" ] ~docv:"SECONDS" ~doc)

let store_arg =
  let doc =
    "Directory of the persistent content-addressed cache tier: finished \
     results and compiled-image metadata spill there keyed by program digest \
     and configuration fingerprint, survive restarts, and are shared by every \
     daemon pointed at the same directory."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let store_max_bytes_arg =
  let doc =
    "Evict least-recently-used store entries once the tier exceeds $(docv) \
     bytes on disk."
  in
  Arg.(
    value
    & opt int (256 * 1024 * 1024)
    & info [ "store-max-bytes" ] ~docv:"BYTES" ~doc)

let open_store_cache ~dir ~max_bytes =
  (* recording is normally enabled by Server.start; turn it on early so
     the store-open gauge and prewarm counters are not dropped *)
  Failatom_obs.Obs.set_enabled true;
  let cache = Cache.create ~store:(Store.open_ ~dir ~max_bytes) () in
  let warmed, _ = Cache.stats cache in
  if warmed > 0 then
    Fmt.epr "failatom: prewarmed %d image(s) from %s@." warmed dir;
  cache

let serve_cmd =
  let action socket workers max_queue job_timeout_s run_timeout_s store
      store_max_bytes =
    match
      Fmt.epr "failatom: serving on %s (%d worker(s))@." socket workers;
      let cache =
        Option.map
          (fun dir -> open_store_cache ~dir ~max_bytes:store_max_bytes)
          store
      in
      Server.run ?cache
        { (Server.default_config ~socket_path:socket) with
          Server.workers;
          max_queue;
          job_timeout_s;
          run_timeout_s }
    with
    | () ->
      Fmt.epr "failatom: server drained, exiting@.";
      exit_ok
    | exception Unix.Unix_error (e, _, _) ->
      Fmt.epr "failatom: cannot serve on %s: %s@." socket (Unix.error_message e);
      exit_internal
  in
  let doc =
    "Serve detection as a long-running daemon over a Unix-domain socket \
     (protocol failatom.rpc/1, newline-delimited JSON).  Compiled program \
     images and finished results are cached content-addressed, so \
     resubmitting a known job is answered without re-running anything; with \
     $(b,--store) the caches also persist to disk across restarts.  \
     SIGTERM/SIGINT or the $(b,shutdown) subcommand drain gracefully."
  in
  Cmd.v (Cmd.info "serve" ~doc ~exits)
    Term.(
      const action $ socket_arg $ workers_arg $ max_queue_arg $ job_timeout_arg
      $ run_timeout_arg $ store_arg $ store_max_bytes_arg)

let job_pos_arg =
  let doc = "Job id as printed by $(b,submit)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB" ~doc)

let print_event = function
  | Protocol.Ev_state s -> Fmt.epr "job: %s@." s
  | Protocol.Ev_tick { completed; needed; injections } ->
    let total = match needed with Some n -> string_of_int n | None -> "?" in
    Fmt.epr "job: %d/%s runs, %d injections@." completed total injections
  | Protocol.Ev_warning msg -> Fmt.epr "job: warning: %s@." msg
  | Protocol.Ev_done _ | Protocol.Ev_error _ | Protocol.Ev_cancelled
  | Protocol.Ev_timeout ->
    ()

let print_job_result (r : Protocol.job_result) =
  Fmt.pr "mode:             %s@." (Protocol.mode_name r.Protocol.r_mode);
  Fmt.pr "flavor:           %s@." r.Protocol.r_flavor;
  Fmt.pr "injections:       %d@." r.Protocol.r_injections;
  Fmt.pr "transparent:      %b@." r.Protocol.r_transparent;
  let c = r.Protocol.r_counts in
  Fmt.pr "methods used:     %d (atomic %d, conditional %d, pure %d)@."
    (c.Protocol.atomic + c.Protocol.conditional + c.Protocol.pure)
    c.Protocol.atomic c.Protocol.conditional c.Protocol.pure;
  List.iter (fun (m, v) -> Fmt.pr "  %-36s %s@." m v) r.Protocol.r_non_atomic;
  (match r.Protocol.r_summary with
   | Some s ->
     Fmt.pr "campaign:         %d executed, %d reused, %d discarded%s on %d worker(s) in %.2fs@."
       s.Protocol.executed s.Protocol.reused s.Protocol.discarded
       (if s.Protocol.synthesized > 0 then
          Printf.sprintf ", %d synthesized" s.Protocol.synthesized
        else "")
       s.Protocol.workers s.Protocol.wall_s
   | None -> ());
  if r.Protocol.r_wrapped <> [] then begin
    Fmt.pr "wrapped:@.";
    List.iter (fun m -> Fmt.pr "  %s@." m) r.Protocol.r_wrapped
  end;
  match r.Protocol.r_resilience with
  | None -> ()
  | Some text -> (
    match Prod.Scorecard.of_string text with
    | Ok scorecard -> Fmt.pr "%a" Prod.Scorecard.pp scorecard
    | Error _ -> Fmt.pr "resilience: %s@." text)

let job_result_code (r : Protocol.job_result) =
  match r.Protocol.r_mode with
  | Protocol.Produce ->
    (* production semantics: failure means a canary validation failed *)
    if r.Protocol.r_transparent then exit_ok else exit_non_atomic
  | Protocol.Detect | Protocol.Campaign | Protocol.Mask ->
    if r.Protocol.r_non_atomic = [] then exit_ok else exit_non_atomic

(* Prints the outcome of a watched [job].  Done frames carry no run log
   ([submit] leaves [log = false]); [--log] fetches it with the [log] op
   on the same connection. *)
let report_outcome ?(resilience_out = None) ~log ~corrected_out conn job outcome =
  match outcome with
  | Client.Completed (result, cached) ->
    if cached then Fmt.epr "(result served from cache)@.";
    print_job_result result;
    (match log with
     | Some path ->
       let text = Client.log conn job in
       let oc = open_out_bin path in
       output_string oc text;
       close_out oc;
       Fmt.epr "run log written to %s@." path
     | None -> ());
    (match (corrected_out, result.Protocol.r_corrected) with
     | Some path, Some src ->
       let oc = open_out_bin path in
       output_string oc src;
       close_out oc;
       Fmt.epr "corrected program written to %s@." path
     | Some path, None ->
       Fmt.epr "failatom: no corrected program to write to %s (not a mask job)@." path
     | None, _ -> ());
    (match (resilience_out, result.Protocol.r_resilience) with
     | Some path, Some text ->
       let oc = open_out_bin path in
       output_string oc text;
       output_char oc '\n';
       close_out oc;
       Fmt.epr "resilience scorecard written to %s@." path
     | Some path, None ->
       Fmt.epr
         "failatom: no resilience scorecard to write to %s (not a produce job)@."
         path
     | None, _ -> ());
    job_result_code result
  | Client.Job_failed msg ->
    Fmt.epr "failatom: job failed: %s@." msg;
    exit_internal
  | Client.Job_cancelled ->
    Fmt.epr "failatom: job cancelled@.";
    exit_internal
  | Client.Job_timed_out ->
    Fmt.epr "failatom: job timed out@.";
    exit_internal

let with_client socket f =
  try f () with
  | Client.Error { msg; _ } ->
    Fmt.epr "failatom: %s@." msg;
    exit_internal
  | Unix.Unix_error (e, _, _) ->
    Fmt.epr "failatom: %s: %s@." socket (Unix.error_message e);
    exit_internal

let connect_retries_arg =
  let doc =
    "Retry a refused or missing socket with capped exponential backoff \
     (useful while a daemon is starting or restarting).  For $(b,submit) \
     without $(b,--detach), a connection that drops before the job's \
     final frame also reconnects and submits the same job again: a \
     daemon restarted on the same $(b,--store) answers a finished job \
     from its cache and re-runs an unfinished one.  $(docv) bounds the \
     reconnect attempts and the resubmissions together; 0 tries once."
  in
  Arg.(value & opt int 0 & info [ "connect-retries" ] ~docv:"N" ~doc)

let submit_cmd =
  let mode_arg =
    let doc =
      "What to run: $(b,detect) (single worker, result identical to the \
       $(b,detect) command), $(b,campaign) (parallel workers), $(b,mask) \
       (detection plus wrap targets and the corrected program), or \
       $(b,produce) (a production run armed from $(b,--plan); never served \
       from the result cache — timings are fresh every run)."
    in
    Arg.(
      value
      & opt
          (Arg.enum
             [ ("detect", Protocol.Detect);
               ("campaign", Protocol.Campaign);
               ("mask", Protocol.Mask);
               ("produce", Protocol.Produce) ])
          Protocol.Detect
      & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let plan_file_arg =
    let doc =
      "Detection plan file for a $(b,produce)-mode job; its text is shipped \
       in the request and validated against the program digest server-side."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let perturb_rate_arg =
    let doc =
      "Canary perturbations per 1000 wrapped calls ($(b,produce) mode); \
       0 or absent disables the canary."
    in
    Arg.(value & opt (some int) None & info [ "perturb-rate" ] ~docv:"PER-MILLE" ~doc)
  in
  let perturb_seed_arg =
    let doc = "Seed of the canary's deterministic draw sequence." in
    Arg.(value & opt (some int) None & info [ "perturb-seed" ] ~docv:"SEED" ~doc)
  in
  let perturb_max_arg =
    let doc = "Stop injecting after $(docv) perturbations." in
    Arg.(value & opt (some int) None & info [ "perturb-max" ] ~docv:"N" ~doc)
  in
  let perturb_point_arg =
    let doc = "Where the canary raises: $(b,entry) or $(b,exit)." in
    Arg.(
      value
      & opt (some (Arg.enum [ ("entry", "entry"); ("exit", "exit") ])) None
      & info [ "perturb-point" ] ~docv:"POINT" ~doc)
  in
  let produce_times_arg =
    let doc = "Production runs per $(b,produce)-mode job (default 1)." in
    Arg.(value & opt (some int) None & info [ "times" ] ~docv:"N" ~doc)
  in
  let resilience_out_arg =
    let doc =
      "Write the resilience scorecard of a $(b,produce)-mode job to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "resilience-out" ] ~docv:"FILE" ~doc)
  in
  let flavor_opt_arg =
    Arg.(
      value
      & opt (some flavor_conv) None
      & info [ "flavor" ] ~docv:"FLAVOR"
          ~doc:
            (flavor_doc
           ^ "  Defaults to the app's suite flavor, or $(b,source) for files."))
  in
  let jobs_arg =
    let doc = "Worker domains for a campaign-mode job (the server clamps)." in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let detach_arg =
    let doc =
      "Print the job id and return immediately instead of watching the job; \
       follow it later with $(b,failatom watch)."
    in
    Arg.(value & flag & info [ "detach" ] ~doc)
  in
  let corrected_arg =
    let doc = "Write the corrected program of a mask-mode job to $(docv)." in
    Arg.(value & opt (some string) None & info [ "corrected" ] ~docv:"FILE" ~doc)
  in
  let action spec socket retries mode flavor prune schedules wrap_all
      exception_free do_not_wrap jobs run_timeout_s detach log corrected_out
      plan_file perturb_rate perturb_seed perturb_max perturb_point times
      resilience_out =
    (* Absent stays absent on the wire (an older server ignores the
       field); a given flag is expanded client-side so the server sees
       concrete specs. *)
    match
      (match schedules with None -> Ok [] | Some _ -> expand_schedules schedules)
    with
    | Error msg ->
      Fmt.epr "failatom: %s@." msg;
      exit_usage
    | Ok schedules ->
    let program =
      if String.length spec > 4 && String.sub spec 0 4 = "app:" then
        Ok (Protocol.App (String.sub spec 4 (String.length spec - 4)))
      else
        (* ship the file's source; the server parses and rejects *)
        Result.map (fun src -> Protocol.Inline src) (load_source spec)
    in
    match program with
    | Error msg ->
      Fmt.epr "failatom: %s@." msg;
      exit_usage
    | Ok program ->
    (* The plan is read client-side and shipped as text: the server
       never sees client paths. *)
    let plan =
      match (mode, plan_file) with
      | Protocol.Produce, None ->
        Error "--mode produce requires --plan"
      | (Protocol.Detect | Protocol.Campaign | Protocol.Mask), Some _ ->
        Error "--plan requires --mode produce"
      | _, None -> Ok None
      | Protocol.Produce, Some path -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | text -> Ok (Some text)
        | exception Sys_error msg -> Error msg)
    in
    match plan with
    | Error msg ->
      Fmt.epr "failatom: %s@." msg;
      exit_usage
    | Ok plan ->
      let req =
        { (Protocol.default_request mode program) with
          Protocol.flavor;
          prune;
          schedules;
          wrap_all;
          exception_free = List.map Method_id.to_string exception_free;
          do_not_wrap = List.map Method_id.to_string do_not_wrap;
          jobs;
          run_timeout_s;
          plan;
          perturb_rate;
          perturb_seed;
          perturb_max;
          perturb_point;
          times }
      in
      with_client socket (fun () ->
          if detach then
            Client.with_conn ~retries ~socket_path:socket (fun conn ->
                Fmt.pr "%s@." (fst (Client.submit conn req));
                exit_ok)
          else
            Client.with_job ~retries ~socket_path:socket req
              ~on_submit:(fun id cached ->
                Fmt.epr "job %s submitted%s@." id (if cached then " (cached)" else ""))
              ~on_event:print_event
              (report_outcome ~resilience_out ~log ~corrected_out))
  in
  let doc =
    "Submit a job to a running $(b,failatom serve) daemon and (unless \
     $(b,--detach)) stream its progress and print the result — equivalent to \
     running $(b,detect)/$(b,campaign)/$(b,mask) locally, but sharing the \
     daemon's compiled-image and result caches."
  in
  Cmd.v (Cmd.info "submit" ~doc ~exits)
    Term.(
      const action $ program_arg $ socket_arg $ connect_retries_arg $ mode_arg
      $ flavor_opt_arg $ prune_arg $ schedules_arg
      $ wrap_all_arg $ exception_free_arg $ do_not_wrap_arg
      $ jobs_arg $ run_timeout_arg $ detach_arg $ log_arg $ corrected_arg
      $ plan_file_arg $ perturb_rate_arg $ perturb_seed_arg
      $ perturb_max_arg $ perturb_point_arg $ produce_times_arg
      $ resilience_out_arg)

let status_cmd =
  let action job socket retries =
    with_client socket (fun () ->
        Client.with_conn ~retries ~socket_path:socket (fun conn ->
            let s = Client.status conn job in
            Fmt.pr "job:    %s@." job;
            Fmt.pr "state:  %s@." s.Client.state;
            (match s.Client.error with
             | Some msg -> Fmt.pr "error:  %s@." msg
             | None -> ());
            match s.Client.result with
            | Some result ->
              if s.Client.cached then Fmt.pr "cached: true@.";
              print_job_result result;
              job_result_code result
            | None -> exit_ok))
  in
  let doc = "Query the state of a job on a running daemon." in
  Cmd.v (Cmd.info "status" ~doc ~exits)
    Term.(const action $ job_pos_arg $ socket_arg $ connect_retries_arg)

let watch_cmd =
  let action job socket retries log =
    with_client socket (fun () ->
        Client.with_conn ~retries ~socket_path:socket (fun conn ->
            Client.watch ~on_event:print_event conn job
            |> report_outcome ~log ~corrected_out:None conn job))
  in
  let doc =
    "Stream a job's progress events until it finishes and print its result \
     (reattaches to jobs submitted with $(b,--detach))."
  in
  Cmd.v (Cmd.info "watch" ~doc ~exits)
    Term.(const action $ job_pos_arg $ socket_arg $ connect_retries_arg $ log_arg)

let cancel_cmd =
  let action job socket retries =
    with_client socket (fun () ->
        Client.with_conn ~retries ~socket_path:socket (fun conn ->
            Client.cancel conn job;
            Fmt.epr "cancellation requested for %s@." job;
            exit_ok))
  in
  let doc =
    "Cancel a job: a queued job is dropped immediately, a running one stops \
     at its next scheduling point."
  in
  Cmd.v (Cmd.info "cancel" ~doc ~exits)
    Term.(const action $ job_pos_arg $ socket_arg $ connect_retries_arg)

let shutdown_cmd =
  let action socket retries =
    with_client socket (fun () ->
        Client.with_conn ~retries ~socket_path:socket (fun conn ->
            Client.shutdown conn;
            Fmt.epr "shutdown requested@.";
            exit_ok))
  in
  let doc =
    "Ask a running daemon to drain — queued jobs cancelled, running jobs \
     finish — and exit."
  in
  Cmd.v (Cmd.info "shutdown" ~doc ~exits)
    Term.(const action $ socket_arg $ connect_retries_arg)

let stats_cmd =
  let metrics_file_arg =
    let doc = "A metrics snapshot previously written by --metrics-out." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"METRICS" ~doc)
  in
  let socket_opt_arg =
    let doc = "Fetch the live metrics snapshot from a running daemon instead." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let render text ~origin =
    match Failatom_obs.Obs.parse_json text with
    | snap ->
      Failatom_obs.Obs.pp_table Fmt.stdout snap;
      exit_ok
    | exception Failatom_obs.Obs.Parse_error msg ->
      Fmt.epr "failatom: %s: %s@." origin msg;
      exit_usage
  in
  let resilience_arg =
    let doc =
      "Treat the positional file as a resilience scorecard \
       (failatom.resilience/1, written by $(b,run --resilience-out)) and \
       render the per-method mask/canary table instead of a metrics snapshot."
    in
    Arg.(value & flag & info [ "resilience" ] ~doc)
  in
  let action path socket retries resilience =
    match (path, socket, resilience) with
    | _, Some _, true ->
      Fmt.epr "failatom: --resilience renders a file, not a live daemon@.";
      exit_usage
    | None, _, true ->
      Fmt.epr "failatom: stats --resilience needs a scorecard file@.";
      exit_usage
    | Some path, None, true -> (
      match Prod.Scorecard.load_file path with
      | Ok scorecard ->
        Fmt.pr "%a" Prod.Scorecard.pp scorecard;
        exit_ok
      | Error msg ->
        Fmt.epr "failatom: %s: %s@." path msg;
        exit_usage)
    | None, None, false ->
      Fmt.epr "failatom: stats needs a METRICS file or --socket@.";
      exit_usage
    | Some _, Some _, false ->
      Fmt.epr "failatom: stats takes either a METRICS file or --socket, not both@.";
      exit_usage
    | Some path, None, false ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      render s ~origin:path
    | None, Some socket, false ->
      with_client socket (fun () ->
          Client.with_conn ~retries ~socket_path:socket (fun conn ->
              render (Client.stats conn) ~origin:socket))
  in
  let doc =
    "Render a metrics snapshot as a per-phase table: counters, gauges, and \
     span timings with count/total/mean/p50/p99/max — from a --metrics-out \
     file or live from a daemon ($(b,--socket))."
  in
  Cmd.v (Cmd.info "stats" ~doc ~exits)
    Term.(
      const action $ metrics_file_arg $ socket_opt_arg $ connect_retries_arg
      $ resilience_arg)

let apps_cmd =
  let action () =
    Fmt.pr "%-14s %-5s %s@." "NAME" "SUITE" "DESCRIPTION";
    List.iter
      (fun (a : Registry.t) ->
        Fmt.pr "%-14s %-5s %s@." a.Registry.name
          (Registry.suite_name a.Registry.suite)
          a.Registry.description)
      Registry.catalog;
    exit_ok
  in
  let doc = "List the bundled workload applications (usable as app:NAME)." in
  Cmd.v (Cmd.info "apps" ~doc ~exits) Term.(const action $ const ())

let experiments_cmd =
  let action () =
    let outcomes = List.map Harness.detect_app Registry.all in
    let reports = List.map (fun o -> o.Harness.report) outcomes in
    Report.pp_table1 Fmt.stdout reports;
    let of_suite s =
      List.filter (fun (r : Report.app_result) -> String.equal r.Report.language s) reports
    in
    Report.pp_figure_methods Fmt.stdout ~title:"C++ apps: % of methods" (of_suite "C++");
    Report.pp_figure_calls Fmt.stdout ~title:"C++ apps: % of calls" (of_suite "C++");
    Report.pp_figure_methods Fmt.stdout ~title:"Java apps: % of methods" (of_suite "Java");
    Report.pp_figure_calls Fmt.stdout ~title:"Java apps: % of calls" (of_suite "Java");
    Report.pp_figure_classes Fmt.stdout ~title:"C++ apps: % of classes" (of_suite "C++");
    Report.pp_figure_classes Fmt.stdout ~title:"Java apps: % of classes" (of_suite "Java");
    exit_ok
  in
  let doc =
    "Run the detection sweep over all bundled applications and print Table 1 \
     and Figures 2-4 (use the bench executable for Figure 5)."
  in
  Cmd.v (Cmd.info "experiments" ~doc ~exits) Term.(const action $ const ())

let analyze_cmd =
  let action spec flavor =
    with_program spec (fun program ->
        let img = ML.Compile.image program in
        let flow = Exnflow.analyze img program in
        let config = Config.default in
        let never = Exnflow.never_throws flow in
        Fmt.pr "exception universe:  %d classes@."
          (List.length (Exnflow.universe flow));
        Fmt.pr "methods analyzed:    %d (%d provably never throw)@."
          (List.length (Exnflow.methods flow))
          (Method_id.Set.cardinal never);
        Fmt.pr "@.may-raise sets (call-graph closed; H = possibly-active catch clauses):@.";
        List.iter
          (fun id ->
            let set = Exnflow.may_raise flow id in
            Fmt.pr "  %-36s H=%-3d %s@." (Method_id.to_string id)
              (Exnflow.handler_clause_count flow id)
              (if set = [] then "(never throws)" else String.concat ", " set))
          (Exnflow.methods flow);
        (* The dynamic census: one walk per analyzer that passes every
           point it offers. *)
        let compiled = Detect.compile ~plain:img flavor program in
        let census ?flow analyzer =
          match
            Detect.walk_with ?flow compiled config analyzer
              ~visit:(fun _ -> Detect.Pass)
              ~forked:(fun _ _ -> ())
          with
          | Detect.Finished { points; groups; _ } -> (points, groups)
          | Detect.Stopped -> assert false (* [visit] never stops *)
        in
        match census ~flow (Analyzer.analyze config program) with
        | exception Detect.Detection_error msg ->
          Fmt.epr "failatom: %s@." msg;
          exit_internal
        | p_off, groups ->
          let p_drop, _ = census (Analyzer.analyze ~flow config program) in
          Fmt.pr "@.pruning report (%s flavor):@." (Detect.flavor_name flavor);
          Fmt.pr "  injection points:      %d (%d runs unpruned, incl. probe)@."
            p_off (p_off + 1);
          Fmt.pr "  --prune drop:          %d points kept, %d dropped@." p_drop
            (p_off - p_drop);
          Fmt.pr
            "  --prune coalesce:      %d representative runs, %d synthesized \
             (%.1f%% of runs eliminated)@."
            groups (p_off - groups)
            (100. *. float_of_int (p_off - groups) /. float_of_int (max 1 (p_off + 1)));
          exit_ok)
  in
  let doc =
    "Static exception-flow analysis report: per-method may-raise sets (closed \
     over the call graph), active-handler summaries, and what each \
     $(b,--prune) mode would save on this program's injection campaign."
  in
  Cmd.v (Cmd.info "analyze" ~doc ~exits)
    Term.(const action $ program_arg $ flavor_arg)

let main_cmd =
  let doc =
    "Automatic detection and masking of non-atomic exception handling \
     (reproduction of Fetzer, Högstedt & Felber, DSN 2003)"
  in
  Cmd.group
    (Cmd.info "failatom" ~version:"1.0.0" ~doc ~exits)
    [ run_cmd; detect_cmd; campaign_cmd; analyze_cmd; classify_cmd; weave_cmd;
      mask_cmd; trace_cmd; profile_cmd; serve_cmd; submit_cmd;
      status_cmd; watch_cmd; cancel_cmd; shutdown_cmd; stats_cmd; apps_cmd;
      experiments_cmd ]

let () =
  match Cmd.eval_value main_cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit exit_ok
  | Error (`Parse | `Term) -> exit exit_usage
  | Error `Exn -> exit exit_internal
