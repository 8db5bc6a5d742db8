(* Masking-phase tests: the headline theorem of the paper — after
   masking, re-detection finds no failure non-atomic method — plus
   policies, do-not-wrap exclusions, checkpoint strategies, and
   semantic transparency of the corrected program. *)

open Failatom_core
open Failatom_apps

let parse = Failatom_minilang.Minilang.parse

(* Runs the full pipeline on [source], then re-runs detection on the
   corrected program and returns the classification restricted to
   original (non-mangled) method names. *)
let residual_non_atomic ?config ?flavor source =
  let config = Option.value ~default:Config.default config in
  let program = parse source in
  let outcome = Mask.correct ~config ?flavor program in
  let d2 =
    Detect.run ~config ?flavor
      ~prepare:(Mask.register_hooks config)
      outcome.Mask.corrected
  in
  let c2 = Classify.classify d2 in
  ( outcome,
    List.filter
      (fun (id : Method_id.t) -> Source_weaver.demangle id.Method_id.name = None)
      (Classify.non_atomic_methods c2) )

let check_masking_closes flavor () =
  let outcome, residual = residual_non_atomic ~flavor Synthetic.source in
  Alcotest.(check bool) "something was wrapped" true
    (not (Method_id.Set.is_empty outcome.Mask.wrapped));
  Alcotest.(check (list string)) "no residual non-atomic methods" []
    (List.map Method_id.to_string residual)

let test_wrap_pure_policy () =
  let program = parse Synthetic.source in
  let outcome = Mask.correct program in
  (* default policy wraps pure methods only: conditionals become atomic
     through their callees *)
  let wrapped = List.map Method_id.to_string (Method_id.Set.elements outcome.Mask.wrapped) in
  Alcotest.(check (list string)) "wrap-pure targets"
    [ "Unit.multiStep"; "Unit.mutateThenCall"; "Unit.mutateThenValidate" ]
    wrapped

let test_wrap_all_policy () =
  let config = { Config.default with Config.wrap_policy = Config.Wrap_all_non_atomic } in
  let program = parse Synthetic.source in
  let outcome = Mask.correct ~config program in
  let wrapped = List.map Method_id.to_string (Method_id.Set.elements outcome.Mask.wrapped) in
  Alcotest.(check (list string)) "wrap-all targets"
    [ "Facade.delegate"; "Facade.guardedDelegate"; "Unit.multiStep";
      "Unit.mutateThenCall"; "Unit.mutateThenValidate" ]
    wrapped

let test_do_not_wrap () =
  let excluded = Method_id.make "Unit" "multiStep" in
  let config = { Config.default with Config.do_not_wrap = [ excluded ] } in
  let program = parse Synthetic.source in
  let outcome = Mask.correct ~config program in
  Alcotest.(check bool) "excluded method not wrapped" false
    (Method_id.Set.mem excluded outcome.Mask.wrapped);
  Alcotest.(check int) "others still wrapped" 2
    (Method_id.Set.cardinal outcome.Mask.wrapped)

(* Transparency: when no masked method fails on a real (uninjected)
   path, the corrected program's output is identical to the original. *)
let transparent_src =
  {|
class Marker {
  field t;
  method init() { this.t = 0; return this; }
}
class Box {
  field n;
  method init() { this.n = 0; return this; }
  method add(k) throws OutOfMemoryError {
    this.n = this.n + k;
    var marker = new Marker();
    return this.n;
  }
}
function main() {
  var b = new Box();
  b.add(2);
  b.add(3);
  println("sum=" + b.n);
  return 0;
}
|}

let test_corrected_output_unchanged () =
  let program = parse transparent_src in
  let baseline = Failatom_minilang.Minilang.run_string transparent_src in
  let outcome = Mask.correct program in
  Alcotest.(check bool) "add was wrapped" true
    (Method_id.Set.mem (Method_id.make "Box" "add") outcome.Mask.wrapped);
  let vm = Mask.load_corrected Config.default ~targets:outcome.Mask.wrapped program in
  ignore (Failatom_minilang.Compile.run_main vm);
  Alcotest.(check string) "corrected program output" baseline
    (Failatom_minilang.Minilang.output vm)

(* The corrected program must actually repair the real-exception data
   corruption the synthetic driver demonstrates: after a masked
   mutateThenValidate(-1) fails, the count must NOT have leaked. *)
let test_rollback_semantics_end_to_end () =
  let contains ~needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    nl = 0 || go 0
  in
  (* Unmasked, the failed mutateThenValidate leaks its increment. *)
  let unmasked = Failatom_minilang.Minilang.run_string Synthetic.source in
  Alcotest.(check bool) "unmasked leaks (count 8)" true
    (contains ~needle:"count after leak: 8" unmasked);
  (* Masked, the rollback repairs it. *)
  let program = parse Synthetic.source in
  let targets = Method_id.Set.singleton (Method_id.make "Unit" "mutateThenValidate") in
  let vm = Mask.load_corrected Config.default ~targets program in
  ignore (Failatom_minilang.Compile.run_main vm);
  Alcotest.(check bool) "masked repairs (count 9)" true
    (contains ~needle:"count after leak: 9" (Failatom_minilang.Minilang.output vm))

let masking_strategy_works strategy () =
  let config = { Config.default with Config.checkpoint_strategy = strategy } in
  let _, residual = residual_non_atomic ~config Synthetic.source in
  Alcotest.(check (list string)) "no residual (strategy)" []
    (List.map Method_id.to_string residual)

(* Binary flavor masking: attach atomicity filters to a compiled VM and
   observe rollback without any source rewriting. *)
let test_binary_masking () =
  let src =
    {|
class C {
  field n;
  field buddy;
  method init() { this.n = 0; this.buddy = newArray(2); return this; }
  method breaks(k) throws IllegalStateException {
    this.n = this.n + k;
    this.buddy[0] = k;
    throw new IllegalStateException("boom");
  }
}
function main() {
  var c = new C();
  try { c.breaks(7); } catch (IllegalStateException e) { }
  println(c.n + "/" + str(c.buddy[0]));
  return 0;
}
|}
  in
  let program = parse src in
  Alcotest.(check string) "unmasked leaks" "7/7\n"
    (Failatom_minilang.Minilang.run_string src);
  let vm = Failatom_minilang.Compile.program program in
  Mask.attach_masking Config.default
    ~targets:(Method_id.Set.singleton (Method_id.make "C" "breaks"))
    vm;
  ignore (Failatom_minilang.Compile.run_main vm);
  Alcotest.(check string) "binary masking rolls back" "0/null\n"
    (Failatom_minilang.Minilang.output vm)

(* Masking the workload applications: for every registry app, masking
   its pure non-atomic methods must close all original-name
   non-atomicity on re-detection.  Exercised on two representative apps
   here to keep the suite fast; the full sweep runs in the bench
   harness. *)
let test_masking_closes_apps () =
  List.iter
    (fun name ->
      let app = Option.get (Registry.find name) in
      let _, residual = residual_non_atomic app.Registry.source in
      Alcotest.(check (list string)) (name ^ " residual") []
        (List.map Method_id.to_string residual))
    [ "LinkedList"; "stdQ" ]

(* Regression: an OCaml-level abort (deadline, scheduler unwind)
   unwinding through a masked call never runs the filter's [post] — the
   wrapper's [unwind] hook must pop the entry, roll it back, and
   dispose it.  Before the hook existed the entry leaked: under the
   lazy strategy its shadow stayed attached to the write barrier
   forever, and the aborted call's mutations survived. *)
let unwind_leak_src =
  {|
class Spin {
  field x;
  method init() { this.x = 0; return this; }
  method spin() throws IllegalStateException {
    this.x = 1;
    while (0 < 1) { this.x = this.x + 1; }
    return this.x;
  }
}
function main() {
  var s = new Spin();
  return s.spin();
}
|}

let check_unwind_releases_checkpoint strategy () =
  let module Vm = Failatom_runtime.Vm in
  let module Heap = Failatom_runtime.Heap in
  let module Value = Failatom_runtime.Value in
  let config = { Config.default with Config.checkpoint_strategy = strategy } in
  let vm = Failatom_minilang.Compile.program (parse unwind_leak_src) in
  Mask.attach_masking config
    ~targets:(Method_id.Set.singleton (Method_id.make "Spin" "spin"))
    vm;
  Vm.arm_deadline vm ~timeout_s:0.05;
  (match Failatom_minilang.Compile.run_main vm with
   | _ -> Alcotest.fail "divergent masked call returned"
   | exception Vm.Deadline_exceeded -> ());
  Alcotest.(check int) "no shadow leaked on the write barrier" 0
    (List.length vm.Vm.heap.Heap.shadows);
  (* the aborted call's mutation was rolled back *)
  let x = ref None in
  Array.iter
    (fun payload ->
      match payload with
      | Some (Heap.Obj { cls = "Spin"; fields }) -> x := Hashtbl.find_opt fields "x"
      | _ -> ())
    vm.Vm.heap.Heap.store;
  match !x with
  | Some (Value.Int 0) -> ()
  | Some v ->
    Alcotest.failf "aborted mutation leaked: Spin.x = %s" (Value.to_string v)
  | _ -> Alcotest.fail "Spin instance not found on the heap"

(* Production wrappers on the concurrent apps: per-thread entry stacks
   and per-thread COW dirty sets must keep interleaved wrapped calls
   independent.  Under each preemptive schedule, a canaried production
   run must be byte-identical between the two rollback engines, roll
   back at least once, and validate every perturbation. *)
let check_concurrent_production name flavor () =
  let module Sched = Failatom_runtime.Sched in
  let module Plan = Failatom_prod.Plan in
  let module Armed = Failatom_prod.Armed in
  let module Perturb = Failatom_prod.Perturb in
  let module Scorecard = Failatom_prod.Scorecard in
  let module Produce = Failatom_prod.Produce in
  let program = parse (Option.get (Registry.find name)).Registry.source in
  (* sweep detection so the seeded schedule-only violations are
     classified — and therefore wrapped — like any pure non-atomic
     method *)
  let config =
    { Config.default with Config.schedules = [ "coop"; "slice:1"; "slice:2"; "slice:3" ] }
  in
  let detection = Detect.run ~config ~flavor program in
  let classification = Classify.classify detection in
  let plan = Plan.build ~config ~flavor ~program ~detection ~classification in
  let perturb =
    { Produce.seed = 11;
      rate_per_mille = 500;
      max_fires = None;
      point = Perturb.At_exit;
      fallback_exceptions = [] }
  in
  List.iter
    (fun spec ->
      let policy = Option.get (Sched.policy_of_string spec) in
      let run rollback =
        match Produce.run ~config ~rollback ~perturb ~policy ~times:2 ~plan program with
        | Ok r -> r
        | Error msg -> Alcotest.failf "%s under %s: %s" name spec msg
      in
      let cp = run Armed.Rb_checkpoint in
      let cow = run Armed.Rb_cow in
      Alcotest.(check (list string))
        (Printf.sprintf "%s under %s: outputs bitwise identical" name spec)
        (List.map (fun (r : Produce.run_report) -> r.Produce.output) cp.Produce.runs)
        (List.map (fun (r : Produce.run_report) -> r.Produce.output) cow.Produce.runs);
      Alcotest.(check bool)
        (Printf.sprintf "%s under %s: rollbacks exercised" name spec)
        true
        (Scorecard.hits cow.Produce.scorecard > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s under %s: zero validation failures" name spec)
        0
        (Scorecard.failed cow.Produce.scorecard);
      (* every perturbation is accounted for: validated outright, or
         inconclusive because a concurrent thread wrote during the call *)
      Alcotest.(check int)
        (Printf.sprintf "%s under %s: every perturbation accounted" name spec)
        (Scorecard.fired cow.Produce.scorecard)
        (Scorecard.validated cow.Produce.scorecard
        + Scorecard.interfered cow.Produce.scorecard))
    [ "slice:1"; "slice:4"; "pct:3:7" ]

let suite =
  [ Alcotest.test_case "masking closes (source)" `Quick
      (check_masking_closes Detect.Source_weaving);
    Alcotest.test_case "masking closes (binary)" `Quick
      (check_masking_closes Detect.Load_time_filters);
    Alcotest.test_case "wrap-pure policy" `Quick test_wrap_pure_policy;
    Alcotest.test_case "wrap-all policy" `Quick test_wrap_all_policy;
    Alcotest.test_case "do-not-wrap" `Quick test_do_not_wrap;
    Alcotest.test_case "corrected output unchanged" `Quick test_corrected_output_unchanged;
    Alcotest.test_case "rollback repairs corruption" `Quick
      test_rollback_semantics_end_to_end;
    Alcotest.test_case "eager strategy" `Quick
      (masking_strategy_works Failatom_runtime.Checkpoint.Eager);
    Alcotest.test_case "lazy strategy" `Quick
      (masking_strategy_works Failatom_runtime.Checkpoint.Lazy);
    Alcotest.test_case "binary masking" `Quick test_binary_masking;
    Alcotest.test_case "masking closes apps" `Quick test_masking_closes_apps;
    Alcotest.test_case "unwind releases checkpoint (eager)" `Quick
      (check_unwind_releases_checkpoint Failatom_runtime.Checkpoint.Eager);
    Alcotest.test_case "unwind releases checkpoint (lazy)" `Quick
      (check_unwind_releases_checkpoint Failatom_runtime.Checkpoint.Lazy);
    Alcotest.test_case "concurrent production: StripedMap (bytecode)" `Quick
      (check_concurrent_production "StripedMap" Detect.Load_time_filters);
    Alcotest.test_case "concurrent production: BoundedBuffer (bytecode)" `Quick
      (check_concurrent_production "BoundedBuffer" Detect.Load_time_filters);
    Alcotest.test_case "concurrent production: WorkQueue (bytecode)" `Quick
      (check_concurrent_production "WorkQueue" Detect.Load_time_filters) ]
