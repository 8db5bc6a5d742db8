(* Production runtime (lib/prod) tests.

   The failatom.plan/1 artifact is the contract between detection and
   the always-on masking runtime: these tests pin its round trip
   (emit → load → armed targets equal a fresh detection's Mask.targets),
   its refusal of stale digests and of documents missing required
   fields, the rollback's observables against the golden rollback table
   (produced under the eager checkpoint), and the seeded
   canary channel validating failure-obliviousness live over a
   1000+-call run. *)

open Failatom_core
open Failatom_apps
module Minilang = Failatom_minilang.Minilang
module Sched = Failatom_runtime.Sched
module Plan = Failatom_prod.Plan
module Perturb = Failatom_prod.Perturb
module Scorecard = Failatom_prod.Scorecard
module Produce = Failatom_prod.Produce

let parse = Minilang.parse
let find_app name = Option.get (Registry.find name)

let plan_of ?(config = Config.default) ~flavor program =
  let detection = Detect.run ~config ~flavor program in
  let classification =
    Classify.classify ~exception_free:config.Config.exception_free detection
  in
  Plan.build ~config ~flavor ~program ~detection ~classification

let strings_of_set s = List.map Method_id.to_string (Method_id.Set.elements s)
let method_set = Alcotest.(slist string String.compare)

let production ?config ?perturb ?policy ~plan ~times program =
  match Produce.run ?config ?perturb ?policy ~times ~plan program with
  | Ok r -> r
  | Error msg -> Alcotest.failf "production run failed: %s" msg

let core_rows = Rollback_golden.core_rows

(* A canary aggressive enough to force rollbacks on every eligible
   call; At_exit makes each one restore a really-mutated graph. *)
let hot_canary seed =
  { Produce.seed;
    rate_per_mille = 1000;
    max_fires = None;
    point = Perturb.At_exit;
    fallback_exceptions = [] }

(* ------------------------------------------------------------------ *)
(* Plan artifact                                                       *)
(* ------------------------------------------------------------------ *)

let check_plan_round_trip name flavor () =
  let program = parse (find_app name).Registry.source in
  let plan = plan_of ~flavor program in
  let json = Plan.to_json plan in
  match Plan.of_string json with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok plan2 -> (
    Alcotest.(check string) "deterministic re-rendering" json (Plan.to_json plan2);
    (* the loaded plan arms exactly what a fresh detection would wrap *)
    let fresh = Detect.run ~config:Config.default ~flavor program in
    let cls = Classify.classify fresh in
    Alcotest.(check method_set) "targets equal fresh Mask.targets"
      (strings_of_set (Mask.targets Config.default cls))
      (strings_of_set (Plan.target_set plan2));
    match
      Plan.validate ~config:Config.default plan2
        ~program_digest:(Minilang.program_digest program)
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "fresh plan refused: %s" msg)

let test_stale_rejection () =
  let linked = parse (find_app "LinkedList").Registry.source in
  let other = parse (find_app "RBTree").Registry.source in
  let plan = plan_of ~flavor:Detect.Load_time_filters linked in
  (match Plan.validate plan ~program_digest:(Minilang.program_digest other) with
   | Ok () -> Alcotest.fail "plan for another program accepted"
   | Error _ -> ());
  (* the driver refuses to arm, not just the validator *)
  (match Produce.run ~plan other with
   | Ok _ -> Alcotest.fail "stale plan armed wrappers"
   | Error _ -> ());
  (* a config with a different fingerprint is stale too *)
  let cfg = { Config.default with Config.wrap_policy = Config.Wrap_all_non_atomic } in
  match
    Plan.validate ~config:cfg plan ~program_digest:(Minilang.program_digest linked)
  with
  | Ok () -> Alcotest.fail "plan under a different config accepted"
  | Error _ -> ()

let required_fields =
  [ "schema"; "program_digest"; "config_fingerprint"; "flavor"; "wrap_policy";
    "injections"; "targets"; "methods" ]

let test_strict_decoding () =
  let program = parse (find_app "LinkedList").Registry.source in
  let plan = plan_of ~flavor:Detect.Load_time_filters program in
  let fields =
    match Json.of_string (Plan.to_json plan) with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "plan is not a JSON object"
  in
  (* a plan from a future producer that dropped a required field must
     not arm silently *)
  List.iter
    (fun name ->
      let stripped =
        Json.Obj (List.filter (fun (k, _) -> not (String.equal k name)) fields)
      in
      match Plan.of_string (Json.to_string stripped) with
      | Ok _ -> Alcotest.failf "plan without %S accepted" name
      | Error _ -> ())
    required_fields;
  (* additive extensions are ignored *)
  let extended = Json.Obj (fields @ [ ("future_extension", Json.Int 1) ]) in
  match Plan.of_string (Json.to_string extended) with
  | Error msg -> Alcotest.failf "additive extension rejected: %s" msg
  | Ok p ->
    Alcotest.(check string) "extension ignored" (Plan.to_json plan) (Plan.to_json p)

(* ------------------------------------------------------------------ *)
(* Rollback equivalence                                                *)
(* ------------------------------------------------------------------ *)

(* The copy-on-write rollback must be observationally indistinguishable
   from the eager checkpoint: the outputs' digest and the per-method
   call, hit, and canary-verdict counts must equal the golden rollback
   table, produced under the eager checkpoint — only the timings may
   differ. *)
let check_rollback_equivalence name flavor () =
  let key = Rollback_golden.produce_key name flavor in
  let r = Rollback_golden.run_produce name flavor in
  Rollback_golden.check_lines key (Rollback_golden.produce_lines key r);
  Alcotest.(check bool) "rollbacks exercised" true (Scorecard.hits r.Produce.scorecard > 0);
  Alcotest.(check int) "no validation failures" 0 (Scorecard.failed r.Produce.scorecard)

(* ------------------------------------------------------------------ *)
(* Canary channel                                                      *)
(* ------------------------------------------------------------------ *)

let test_canary_thousand_calls () =
  let program = parse (find_app "LinkedList").Registry.source in
  let plan = plan_of ~flavor:Detect.Load_time_filters program in
  let { Produce.scorecard; _ } =
    production ~perturb:(hot_canary 42) ~plan ~times:80 program
  in
  Alcotest.(check bool) "a 1000+-call production run" true
    (Scorecard.calls scorecard >= 1000);
  Alcotest.(check bool) "the canary fired" true (Scorecard.fired scorecard > 0);
  Alcotest.(check int) "every perturbation validated"
    (Scorecard.fired scorecard)
    (Scorecard.validated scorecard);
  Alcotest.(check int) "sequential runs never interfere" 0
    (Scorecard.interfered scorecard);
  Alcotest.(check int) "zero validation failures" 0 (Scorecard.failed scorecard)

(* Same seed, same plan: the draw sequence — and therefore the whole
   scorecard core — is reproducible; a different seed perturbs a
   different set of calls. *)
let test_canary_determinism () =
  let program = parse (find_app "Dynarray").Registry.source in
  let plan = plan_of ~flavor:Detect.Load_time_filters program in
  let spec seed = { (hot_canary seed) with Produce.rate_per_mille = 300 } in
  let run seed = production ~perturb:(spec seed) ~plan ~times:4 program in
  let a = run 5 and b = run 5 in
  Alcotest.(check (list string)) "same seed, same scorecard core"
    (core_rows a.Produce.scorecard) (core_rows b.Produce.scorecard);
  Alcotest.(check (list string)) "same seed, same outputs"
    (List.map (fun (r : Produce.run_report) -> r.Produce.output) a.Produce.runs)
    (List.map (fun (r : Produce.run_report) -> r.Produce.output) b.Produce.runs)

(* At_entry: the body never ran, so the rollback is trivial and the
   retry's result is the call's only execution. *)
let test_canary_at_entry () =
  let program = parse (find_app "LinkedList").Registry.source in
  let plan = plan_of ~flavor:Detect.Load_time_filters program in
  let perturb = { (hot_canary 3) with Produce.point = Perturb.At_entry } in
  let plain = production ~plan ~times:2 program in
  let canaried = production ~perturb ~plan ~times:2 program in
  Alcotest.(check (list string)) "entry perturbation is output-transparent"
    (List.map (fun (r : Produce.run_report) -> r.Produce.output) plain.Produce.runs)
    (List.map (fun (r : Produce.run_report) -> r.Produce.output) canaried.Produce.runs);
  Alcotest.(check int) "zero validation failures" 0
    (Scorecard.failed canaried.Produce.scorecard);
  Alcotest.(check bool) "the canary fired" true
    (Scorecard.fired canaried.Produce.scorecard > 0)

let test_perturb_max_caps_fires () =
  let program = parse (find_app "LinkedList").Registry.source in
  let plan = plan_of ~flavor:Detect.Load_time_filters program in
  let perturb = { (hot_canary 9) with Produce.max_fires = Some 2 } in
  let { Produce.scorecard; _ } =
    production ~perturb ~plan ~times:5 program
  in
  Alcotest.(check int) "fires capped" 2 (Scorecard.fired scorecard)

(* ------------------------------------------------------------------ *)
(* Scorecard artifact                                                  *)
(* ------------------------------------------------------------------ *)

let test_scorecard_round_trip () =
  let program = parse (find_app "LinkedList").Registry.source in
  let plan = plan_of ~flavor:Detect.Load_time_filters program in
  let { Produce.scorecard; _ } =
    production ~perturb:(hot_canary 1) ~plan ~times:2 program
  in
  let json = Scorecard.to_json scorecard in
  match Scorecard.of_string json with
  | Error msg -> Alcotest.failf "scorecard round trip failed: %s" msg
  | Ok sc2 ->
    Alcotest.(check string) "deterministic re-rendering" json (Scorecard.to_json sc2);
    Alcotest.(check (list string)) "same core" (core_rows scorecard) (core_rows sc2)

(* The golden rollback table holds exactly the cases the checks
   recompute, in order: a case added without its rows, or rows left
   behind by a removed case, fails here. *)
let test_rollback_table_complete () =
  Alcotest.(check (list string))
    "committed cases = computed cases"
    (List.map fst Rollback_golden.cases)
    (Rollback_golden.committed_keys ())

(* ------------------------------------------------------------------ *)
(* Compatibility pin                                                   *)
(* ------------------------------------------------------------------ *)

let failatom_exe () =
  match Sys.getenv_opt "FAILATOM_EXE" with
  | Some exe when Sys.file_exists exe -> Some exe
  | _ -> None

(* Runs the CLI with its output captured; [None] when the binary is not
   wired in (the CI resilience smoke covers it then). *)
let cli args =
  Option.map
    (fun exe ->
      let out = Filename.temp_file "failatom_cli" ".out" in
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
             (String.concat " " (List.map Filename.quote args))
             (Filename.quote out))
      in
      let text = In_channel.with_open_bin out In_channel.input_all in
      Sys.remove out;
      (code, text))
    (failatom_exe ())

(* Scorecards written while the eager checkpoint was the production
   default record "rollback":"checkpoint".  They still decode, and
   [failatom stats --resilience] still renders them. *)
let test_checkpoint_scorecard_decodes () =
  let golden =
    In_channel.with_open_bin (Filename.concat "golden" "resilience_LinkedList.json")
      In_channel.input_all
  in
  let old =
    match Json.of_string golden with
    | Json.Obj fields ->
      Json.to_string
        (Json.Obj
           (List.map
              (fun (k, v) -> if k = "rollback" then (k, Json.Str "checkpoint") else (k, v))
              fields))
    | _ -> Alcotest.fail "golden scorecard is not a JSON object"
  in
  (match (Scorecard.of_string golden, Scorecard.of_string old) with
   | Ok cow, Ok cp ->
     Alcotest.(check string) "engine kept" "checkpoint" cp.Scorecard.rollback;
     Alcotest.(check (list string)) "same core" (core_rows cow) (core_rows cp)
   | Error msg, _ | _, Error msg -> Alcotest.failf "scorecard rejected: %s" msg);
  let path = Filename.temp_file "failatom_sc" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc old);
  let rendered = cli [ "stats"; path; "--resilience" ] in
  Sys.remove path;
  Option.iter
    (fun (code, text) ->
      Alcotest.(check int) "stats --resilience exit" 0 code;
      Alcotest.(check bool) "renders the recorded engine" true
        (String.starts_with ~prefix:"resilience scorecard (checkpoint rollback" text))
    rendered

(* The rollback-engine flag selects nothing any more: like other
   retired flags it is an unknown option, a usage error. *)
let test_wrapper_rollback_flag_retired () =
  List.iter
    (fun args ->
      Option.iter
        (fun (code, _) -> Alcotest.(check int) (String.concat " " args) 2 code)
        (cli args))
    [ [ "run"; "app:LinkedList"; "--wrapper-rollback"; "cow" ];
      [ "submit"; "app:LinkedList"; "--wrapper-rollback"; "checkpoint" ] ]

(* Copy-on-write snapshots replaced eager ones as the detection path
   without changing any run record, so every fingerprint recorded while
   eager was the default must stay valid.  The hex values and the
   golden plan were produced before the switch; [plan_LinkedList.json]
   is `failatom detect app:LinkedList --emit-plan` output. *)
let cli_detect_config = { Config.default with Config.prune = Config.Prune_coalesce }

let test_fingerprints_pinned () =
  Alcotest.(check string) "library default" "c60c0116e6b61bdf97122f311fee383e"
    (Config.fingerprint Config.default);
  Alcotest.(check string) "CLI detect default (prune coalesce)"
    "55c7127d01f313e9bb42b2d0a4714ff6"
    (Config.fingerprint cli_detect_config);
  Alcotest.(check string) "eager oracle fingerprints as cow"
    (Config.fingerprint { Config.default with Config.snapshot_mode = Config.Snapshot_cow })
    (Config.fingerprint { Config.default with Config.snapshot_mode = Config.Snapshot_eager })

let test_golden_plan_still_arms () =
  let text =
    In_channel.with_open_bin (Filename.concat "golden" "plan_LinkedList.json")
      In_channel.input_all
  in
  let program = parse (find_app "LinkedList").Registry.source in
  match Plan.of_string text with
  | Error msg -> Alcotest.failf "golden plan rejected: %s" msg
  | Ok plan ->
    (match
       Plan.validate ~config:cli_detect_config plan
         ~program_digest:(Minilang.program_digest program)
     with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "golden plan invalid: %s" msg);
    Alcotest.(check string) "detect --emit-plan is byte-unchanged" (String.trim text)
      (Plan.to_json (plan_of ~config:cli_detect_config ~flavor:Detect.Source_weaving program));
    let { Produce.scorecard; _ } = production ~plan ~times:1 program in
    Alcotest.(check (list string)) "every target armed"
      (List.map Method_id.to_string plan.Plan.targets)
      (List.filter_map
         (fun (r : Scorecard.meth_row) ->
           if r.Scorecard.r_calls > 0 then Some (Method_id.to_string r.Scorecard.r_id)
           else None)
         scorecard.Scorecard.rows)

let suite =
  let rt name flavor label =
    Alcotest.test_case
      (Printf.sprintf "plan round trip: %s (%s)" name label)
      `Quick
      (check_plan_round_trip name flavor)
  in
  let eq name flavor flabel =
    Alcotest.test_case
      (Printf.sprintf "cow = checkpoint: %s (%s, bytecode)" name flabel)
      `Quick
      (check_rollback_equivalence name flavor)
  in
  [ rt "LinkedList" Detect.Load_time_filters "binary";
    rt "LinkedList" Detect.Source_weaving "source";
    rt "Dynarray" Detect.Load_time_filters "binary";
    Alcotest.test_case "stale plan refused" `Quick test_stale_rejection;
    Alcotest.test_case "strict decoding" `Quick test_strict_decoding;
    eq "LinkedList" Detect.Load_time_filters "binary";
    eq "LinkedList" Detect.Source_weaving "source";
    eq "Dynarray" Detect.Load_time_filters "binary";
    eq "Dynarray" Detect.Source_weaving "source";
    eq "RBTree" Detect.Load_time_filters "binary";
    Alcotest.test_case "seeded 1k-call canary, zero failures" `Quick
      test_canary_thousand_calls;
    Alcotest.test_case "canary determinism in the seed" `Quick
      test_canary_determinism;
    Alcotest.test_case "entry-point canary is transparent" `Quick
      test_canary_at_entry;
    Alcotest.test_case "perturb-max caps fires" `Quick test_perturb_max_caps_fires;
    Alcotest.test_case "scorecard round trip" `Quick test_scorecard_round_trip;
    Alcotest.test_case "rollback table lists every case" `Quick
      test_rollback_table_complete;
    Alcotest.test_case "checkpoint scorecards still decode" `Quick
      test_checkpoint_scorecard_decodes;
    Alcotest.test_case "--wrapper-rollback is retired" `Quick
      test_wrapper_rollback_flag_retired;
    Alcotest.test_case "default fingerprints pinned" `Quick test_fingerprints_pinned;
    Alcotest.test_case "golden plan still validates and arms" `Quick
      test_golden_plan_still_arms ]
