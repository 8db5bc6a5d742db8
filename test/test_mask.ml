(* Masking-phase tests: the headline theorem of the paper — after
   masking, re-detection finds no failure non-atomic method — plus
   policies, do-not-wrap exclusions, the copy-on-write checkpoint every
   wrapper rolls back with, and semantic transparency of the corrected
   program. *)

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

(* The theorem under the copy-on-write checkpoint — the lazy strategy:
   payloads are copied on their first write, not at entry — and under
   both root policies: receiver plus reference arguments (closed
   checkpoints), and the receiver-only policy of the paper's Java
   flavor, whose checkpoints leave reference arguments out and roll
   back through the entry-reachability filter. *)
let test_lazy_masking_closes () =
  List.iter
    (fun snapshot_args ->
      let config = { Config.default with Config.snapshot_args } in
      let _, residual = residual_non_atomic ~config Synthetic.source in
      Alcotest.(check (list string))
        (Printf.sprintf "no residual (snapshot_args=%b)" snapshot_args)
        [] (List.map Method_id.to_string residual))
    [ true; false ]

(* The copy-on-write rollback against the eager strategy of paper
   Listing 2: an outer filter takes a {!Checkpoint.Eager} copy at every
   masked call's entry and, once the masking filter inside it has
   rolled an exceptional exit back, applies the eager rollback too —
   which must then change no payload on the heap. *)
let payload_repr heap id =
  let module Heap = Failatom_runtime.Heap in
  match Heap.get heap id with
  | Heap.Obj { cls; _ } ->
    `Obj
      (cls, List.map (fun k -> (k, Heap.get_field heap id k)) (Heap.field_names heap id))
  | Heap.Arr a -> `Arr (Array.to_list a)

let heap_repr heap =
  let module Heap = Failatom_runtime.Heap in
  List.init (heap.Heap.next_id - 1) (fun i ->
      let id = i + 1 in
      if Heap.mem heap id then Some (payload_repr heap id) else None)

let test_eager_reference_agrees () =
  let module Vm = Failatom_runtime.Vm in
  let module Eager = Failatom_runtime.Checkpoint.Eager in
  let config = Config.default in
  let outcome = Mask.correct ~config (parse Synthetic.source) in
  let vm = Failatom_minilang.Compile.program (parse Synthetic.source) in
  Mask.attach_masking config ~targets:outcome.Mask.wrapped vm;
  let stack = Stack.create () and compared = ref 0 in
  let reference =
    { Vm.filt_name = "eager-reference";
      pre =
        (fun vm _meth recv args ->
          Stack.push
            (Eager.take vm.Vm.heap (Mask.checkpoint_roots config recv args))
            stack;
          Vm.Proceed);
      post =
        (fun vm meth _recv _args result ->
          let eager = Stack.pop stack in
          if Result.is_error result then begin
            incr compared;
            let after_cow = heap_repr vm.Vm.heap in
            Eager.rollback eager;
            if heap_repr vm.Vm.heap <> after_cow then
              Alcotest.failf "%s.%s: the eager rollback restored a payload the \
                              copy-on-write rollback left" meth.Vm.meth_class
                meth.Vm.meth_name
          end;
          Vm.Pass);
      unwind = (fun _vm _meth -> ignore (Stack.pop stack)) }
  in
  Vm.iter_methods vm (fun _cls meth ->
      let id = Method_id.make meth.Vm.meth_class meth.Vm.meth_name in
      if Method_id.Set.mem id outcome.Mask.wrapped then Vm.attach_filter meth reference);
  ignore (Failatom_minilang.Compile.run_main vm);
  Alcotest.(check bool) "some masked call exited exceptionally" true (!compared > 0)

(* Every wrapper — load-time filter, woven hooks, production wrapper —
   runs [src] with [targets] masked under [config]; returns the three
   outputs, labelled. *)
let masked_outputs config ~targets src =
  let module Compile = Failatom_minilang.Compile in
  let program = parse src in
  let run vm =
    ignore (Compile.run_main vm);
    Failatom_minilang.Minilang.output vm
  in
  let binary = Compile.program program in
  Mask.attach_masking config ~targets binary;
  let armed = Compile.program program in
  Failatom_prod.Armed.arm (Failatom_prod.Armed.create ~config ~targets ()) armed;
  [ ("binary", run binary);
    ("source", run (Mask.load_corrected config ~targets program));
    ("armed", run armed) ]

(* With [snapshot_args = false] the checkpoint covers the receiver
   only: a reference argument the call mutates keeps its write, as
   under an eager checkpoint of the same roots, while the receiver is
   rolled back. *)
let arg_outside_roots_src =
  {|
class Box {
  field v;
  method init() { this.v = 0; return this; }
}
class C {
  field n;
  method init() { this.n = 0; return this; }
  method m(b) throws IllegalStateException {
    this.n = this.n + 1;
    b.v = b.v + 1;
    throw new IllegalStateException("boom");
  }
}
function main() {
  var c = new C();
  var b = new Box();
  try { c.m(b); } catch (IllegalStateException e) { }
  println("n=" + c.n + " v=" + b.v);
  return 0;
}
|}

let test_receiver_roots_only () =
  let config = { Config.default with Config.snapshot_args = false } in
  let targets = Method_id.Set.singleton (Method_id.make "C" "m") in
  List.iter
    (fun (wrapper, out) -> Alcotest.(check string) wrapper "n=0 v=1\n" out)
    (masked_outputs config ~targets arg_outside_roots_src)

(* A rollback never rewinds objects allocated during the call: the
   exception the wrapped method constructs (and initializes field by
   field) reaches the handler intact. *)
let exception_in_call_src =
  {|
class Boom extends Exception {
  field code;
  method init(m, k) { this.message = m; this.code = k; return this; }
}
class Counter {
  field n;
  method init() { this.n = 0; return this; }
  method bump() throws Boom {
    this.n = this.n + 42;
    throw new Boom("boom", this.n);
  }
}
function main() {
  var c = new Counter();
  try { c.bump(); } catch (Boom e) { println("caught " + e.message + " " + e.code); }
  println("n=" + c.n);
  return 0;
}
|}

let test_rollback_spares_new_objects () =
  let targets = Method_id.Set.singleton (Method_id.make "Counter" "bump") in
  List.iter
    (fun (wrapper, out) -> Alcotest.(check string) wrapper "caught boom 42\nn=0\n" out)
    (masked_outputs Config.default ~targets exception_in_call_src)

(* Masked runs of every catalog app, in both flavors, against the
   golden rollback table (produced under eager checkpoints). *)
let test_masked_runs_golden () =
  List.iter
    (fun (a : Registry.t) ->
      let name = a.Registry.name in
      Rollback_golden.check ("mask-binary " ^ name);
      Rollback_golden.check ("mask-source " ^ name))
    Registry.catalog

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
   here to keep the suite fast; CI's re-detection step runs
   [failatom mask app:NAME --verify] over every app whose driver
   permits it. *)
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
   dispose it.  Before the hook existed the entry leaked: a
   copy-on-write checkpoint's shadow stayed attached to the write
   barrier forever, and the aborted call's mutations survived.  The
   abort lands either before the call's first write (a clean shadow to
   release) or after it (a dirty one to roll back as well). *)
let unwind_early_src =
  {|
class Spin {
  field x;
  method init() { this.x = 0; return this; }
  method spin() throws IllegalStateException {
    var i = 0;
    while (0 < 1) { i = i + 1; }
    this.x = i;
    return this.x;
  }
}
function main() {
  var s = new Spin();
  return s.spin();
}
|}

let unwind_late_src =
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

let check_unwind_releases_checkpoint src () =
  let module Vm = Failatom_runtime.Vm in
  let module Heap = Failatom_runtime.Heap in
  let module Value = Failatom_runtime.Value in
  let vm = Failatom_minilang.Compile.program (parse src) in
  Mask.attach_masking Config.default
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
  Heap.iter_ids vm.Vm.heap (fun id ->
      if Heap.class_of vm.Vm.heap id = Some "Spin" then x := Heap.get_field vm.Vm.heap id "x");
  match !x with
  | Some (Value.Int 0) -> ()
  | Some v ->
    Alcotest.failf "aborted mutation leaked: Spin.x = %s" (Value.to_string v)
  | _ -> Alcotest.fail "Spin instance not found on the heap"

(* Production wrappers on the concurrent apps: per-thread entry stacks
   and per-thread COW dirty sets must keep interleaved wrapped calls
   independent.  Under each preemptive schedule, a canaried production
   run must match the golden rollback table (outputs and scorecard
   core, as the eager checkpoint produced them), roll back at least
   once, and validate every perturbation.  The plan comes from a sweep
   detection, so the seeded schedule-only violations are wrapped like
   any pure non-atomic method. *)
let check_concurrent_production name () =
  let module Scorecard = Failatom_prod.Scorecard in
  let module Produce = Failatom_prod.Produce in
  let plan = Rollback_golden.concurrent_plan name in
  List.iter
    (fun spec ->
      let key = Rollback_golden.concurrent_key name spec in
      let cow = Rollback_golden.run_concurrent plan spec in
      Rollback_golden.check_lines key (Rollback_golden.produce_lines key cow);
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
    Rollback_golden.concurrent_specs

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
    Alcotest.test_case "eager strategy" `Quick test_eager_reference_agrees;
    Alcotest.test_case "lazy strategy" `Quick test_lazy_masking_closes;
    Alcotest.test_case "reference argument outside the roots" `Quick
      test_receiver_roots_only;
    Alcotest.test_case "rollback spares objects allocated in the call" `Quick
      test_rollback_spares_new_objects;
    Alcotest.test_case "masked runs match the rollback table" `Quick
      test_masked_runs_golden;
    Alcotest.test_case "binary masking" `Quick test_binary_masking;
    Alcotest.test_case "masking closes apps" `Quick test_masking_closes_apps;
    Alcotest.test_case "unwind releases checkpoint (early abort)" `Quick
      (check_unwind_releases_checkpoint unwind_early_src);
    Alcotest.test_case "unwind releases checkpoint (late abort)" `Quick
      (check_unwind_releases_checkpoint unwind_late_src);
    Alcotest.test_case "concurrent production: StripedMap (bytecode)" `Quick
      (check_concurrent_production "StripedMap");
    Alcotest.test_case "concurrent production: BoundedBuffer (bytecode)" `Quick
      (check_concurrent_production "BoundedBuffer");
    Alcotest.test_case "concurrent production: WorkQueue (bytecode)" `Quick
      (check_concurrent_production "WorkQueue") ]
