(* The static exception-flow analysis (lib/core/exnflow.ml) and the
   campaign pruning built on it (lib/core/prune.ml, Detect's coalesce
   and drop modes).

   The load-bearing property is soundness of coalescing: under
   [--prune coalesce] the detection result — every run record, mark for
   mark, byte for byte — must equal the unpruned campaign's, on every
   bundled application, under both flavors.
   The differential matrix below checks exactly that.

   Drop mode's premise (a point whose exception the method provably
   cannot raise never fires naturally) is property-tested over random
   programs, and checked on the concurrent apps under a schedule sweep:
   an observer filter watches every exceptional method return of an
   exhaustive unpruned campaign and asserts the escaping class is in
   the method's may-raise set (injected exceptions excluded by their
   marker message).  Drop itself must only remove injections, on every
   app and, for the concurrent ones, under the sweep too.

   The may-raise unit tests pin the lattice itself: raise sites,
   try/catch subtraction, catch-var rethrow bounds, call-graph closure
   through dispatch, and the constructor OOM convention. *)

open Failatom_core
open Failatom_minilang
module Registry = Failatom_apps.Registry

let parse = Minilang.parse

let flow_of program =
  let img = Compile.image program in
  Exnflow.analyze img program

let mid cls name = Method_id.make cls name

let check_set what expected actual =
  Alcotest.(check (list string)) what (List.sort compare expected) actual

(* ------------------------------------------------------------------ *)
(* May-raise lattice units                                             *)
(* ------------------------------------------------------------------ *)

let test_may_raise_sites () =
  let program =
    parse
      {|
class C {
  method init() { return this; }
  method divide(a, b) { return a / b; }
  method index(a, i) { return a[i]; }
  method swallow(a, b) {
    try { return a / b; } catch (ArithmeticException e) { return 0; }
    return 0;
  }
  method rethrow(a, b) {
    try { return a / b; } catch (ArithmeticException e) { throw e; }
    return 0;
  }
  method chain(a, b) { return this.divide(a, b); }
  method fresh() { return new C(); }
}
function main() { var c = new C(); c.divide(6, 3); return 0; }
|}
  in
  let f = flow_of program in
  check_set "divide" [ "ArithmeticException" ] (Exnflow.may_raise f (mid "C" "divide"));
  check_set "index"
    [ "IndexOutOfBoundsException"; "NullPointerException" ]
    (Exnflow.may_raise f (mid "C" "index"));
  check_set "swallow handles its exception" [] (Exnflow.may_raise f (mid "C" "swallow"));
  check_set "rethrow keeps the caught class" [ "ArithmeticException" ]
    (Exnflow.may_raise f (mid "C" "rethrow"));
  check_set "call-graph closure" [ "ArithmeticException" ]
    (Exnflow.may_raise f (mid "C" "chain"));
  (* constructors charge the allocation *)
  check_set "init carries OOM" [ "OutOfMemoryError" ]
    (Exnflow.may_raise f (mid "C" "init"));
  check_set "new charges OOM plus init effects" [ "OutOfMemoryError" ]
    (Exnflow.may_raise f (mid "C" "fresh"));
  Alcotest.(check bool)
    "SOE stays unmodelled" true
    (Exnflow.can_raise f (mid "C" "swallow") "StackOverflowError")

let test_dispatch_conservative () =
  let program =
    parse
      {|
class Base {
  method init() { return this; }
  method work() { return 1; }
  method drive(o) { return o.work(); }
}
class Risky {
  method init() { return this; }
  method work() { throw new IllegalStateException("no"); }
}
function main() { var b = new Base(); b.drive(b); return 0; }
|}
  in
  let f = flow_of program in
  (* drive's receiver is untyped: both work implementations are
     dispatch targets, so Risky's throw poisons Base.drive *)
  Alcotest.(check bool)
    "dispatch union reaches the caller" true
    (Exnflow.can_raise f (mid "Base" "drive") "IllegalStateException");
  check_set "the pure target stays clean" [] (Exnflow.may_raise f (mid "Base" "work"))

(* Exnflow's never-throw set must contain everything the syntactic
   baseline proves — the precision comparison promised in purity.mli. *)
let test_subsumes_syntactic_purity () =
  List.iter
    (fun (app : Registry.t) ->
      let program = parse app.Registry.source in
      let syntactic = Purity.never_throws_syntactic program in
      let precise = Exnflow.never_throws (flow_of program) in
      Method_id.Set.iter
        (fun id ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s stays never-throwing" app.Registry.name
               (Method_id.to_string id))
            true
            (Method_id.Set.mem id precise))
        syntactic)
    Registry.catalog

(* ------------------------------------------------------------------ *)
(* Blindness partition                                                 *)
(* ------------------------------------------------------------------ *)

let test_partition () =
  let program =
    parse
      {|
class C {
  method init() { return this; }
  method open() { return 1; }
  method caller() {
    try { this.open(); } catch (NullPointerException e) { return 0 - 1; }
    return 0;
  }
}
function main() { var c = new C(); c.caller(); return 0; }
|}
  in
  let f = flow_of program in
  (* caller's clause discriminates NPE from the rest of the universe, so
     NPE cannot share a group with an uncatchable class at open's
     entry; two generic runtime exceptions caught alike (neither is an
     NPE) can. *)
  Alcotest.(check bool)
    "caught vs uncaught split" false
    (Exnflow.blind_pair f (mid "C" "open") "NullPointerException"
       "IllegalStateException");
  let groups =
    Exnflow.partition f (mid "C" "open")
      [ "NullPointerException"; "IllegalStateException"; "UnsupportedOperationException" ]
  in
  Alcotest.(check bool)
    "NPE isolated, the alike-caught pair grouped" true
    (List.mem [ "NullPointerException" ] groups
    && List.mem [ "IllegalStateException"; "UnsupportedOperationException" ] groups);
  (* concatenation is a permutation of the input *)
  Alcotest.(check int) "no class lost" 3 (List.length (List.concat groups))

(* ------------------------------------------------------------------ *)
(* The soundness gate: coalesce ≡ off, everywhere                      *)
(* ------------------------------------------------------------------ *)

let detect ~flavor ~prune program =
  Detect.run ~config:{ Config.default with Config.prune } ~flavor program

let test_differential_matrix () =
  List.iter
    (fun (app : Registry.t) ->
      let program = parse app.Registry.source in
      List.iter
        (fun flavor ->
          let off = detect ~flavor ~prune:Config.Prune_off program in
          let co = detect ~flavor ~prune:Config.Prune_coalesce program in
          let label what =
            Printf.sprintf "%s/%s: %s" app.Registry.name (Detect.flavor_name flavor) what
          in
          Alcotest.(check bool)
            (label "runs bitwise-identical") true
            (off.Detect.runs = co.Detect.runs);
          Alcotest.(check int) (label "injections") off.Detect.injections co.Detect.injections;
          Alcotest.(check bool) (label "transparent") off.Detect.transparent co.Detect.transparent)
        [ Detect.Source_weaving; Detect.Load_time_filters ])
    Registry.catalog

(* Coalescing must actually coalesce: the groups the walk offers keep
   every threshold exactly once and remove a meaningful share of runs
   on a real app. *)
let test_walk_census () =
  let app = Option.get (Registry.find "RBTree") in
  let program = parse app.Registry.source in
  let flow = flow_of program in
  let config = Config.default in
  let analyzer = Analyzer.analyze config program in
  let compiled = Detect.compile Detect.Source_weaving program in
  let groups = ref [] in
  let points, n_groups, frontier =
    match
      Detect.walk_with ~flow compiled config analyzer
        ~visit:(fun g ->
          groups := g :: !groups;
          Detect.Pass)
        ~forked:(fun _ _ -> ())
    with
    | Detect.Finished { probe; points; groups } -> (points, groups, probe.Marks.injection_point)
    | Detect.Stopped -> Alcotest.fail "the walk stopped"
  in
  let thresholds = List.concat_map (fun g -> List.map fst g.Prune.members) !groups in
  Alcotest.(check (list int))
    "thresholds are exactly 1..P"
    (List.init points (fun i -> i + 1))
    (List.sort compare thresholds);
  Alcotest.(check int) "groups" (List.length !groups) n_groups;
  Alcotest.(check int) "frontier" (points + 1) frontier;
  let eliminated = float_of_int (points - n_groups) /. float_of_int (points + 1) in
  Alcotest.(check bool)
    (Printf.sprintf "RBTree eliminates >= 30%% of runs (got %.1f%%)"
       (100. *. eliminated))
    true (eliminated >= 0.30)

(* The schedule sweep of [--schedules 4]: the cooperative baseline
   plus three preemptive schedules. *)
let sweep = [ "coop"; "slice:1"; "slice:2"; "slice:3" ]

(* Drop is a semantic mode (it renumbers points), but it only removes
   injections: any method non-atomic under drop must already be
   non-atomic under off.  Drop applies to concurrent programs too, so
   those also run under the schedule sweep. *)
let test_drop_subset () =
  let non_atomic d =
    List.map Method_id.to_string
      (Classify.non_atomic_methods (Classify.classify d))
  in
  List.iter
    (fun (app : Registry.t) ->
      let program = parse app.Registry.source in
      let schedule_axes =
        if Minilang.uses_concurrency program then [ [ "coop" ]; sweep ] else [ [ "coop" ] ]
      in
      List.iter
        (fun schedules ->
          let run prune =
            Detect.run
              ~config:{ Config.default with Config.prune; schedules }
              ~flavor:Detect.Source_weaving program
          in
          let off = run Config.Prune_off and drop = run Config.Prune_drop in
          let label what =
            Printf.sprintf "%s [%s]: %s" app.Registry.name
              (String.concat "," schedules) what
          in
          Alcotest.(check bool)
            (label "drop removes runs") true
            (drop.Detect.injections < off.Detect.injections);
          Alcotest.(check bool) (label "still transparent") true drop.Detect.transparent;
          let off_set = non_atomic off in
          List.iter
            (fun m ->
              Alcotest.(check bool)
                (label (m ^ " non-atomic under off too"))
                true (List.mem m off_set))
            (non_atomic drop))
        schedule_axes)
    Registry.catalog

(* ------------------------------------------------------------------ *)
(* Drop-soundness property: dropped points never fire naturally        *)
(* ------------------------------------------------------------------ *)

let long_factor = 10

(* Every (method, class) escaping a method naturally in an exhaustive
   unpruned detection of [program] under [schedules]. *)
let natural_escapes ?(schedules = [ "coop" ]) program =
  let observed = ref [] in
  let observer =
    { Failatom_runtime.Vm.filt_name = "exnflow-observer";
      pre = (fun _ _ _ _ -> Failatom_runtime.Vm.Proceed);
      post =
        (fun _ m _ _ outcome ->
          (match outcome with
           | Error e
             when not (String.equal e.Failatom_runtime.Vm.message "injected")
             ->
             observed :=
               ( Method_id.make m.Failatom_runtime.Vm.meth_class
                   m.Failatom_runtime.Vm.meth_name,
                 e.Failatom_runtime.Vm.exn_class )
               :: !observed
           | _ -> ());
          Failatom_runtime.Vm.Pass);
      unwind = Failatom_runtime.Vm.no_unwind }
  in
  let _ =
    Detect.run
      ~config:{ Config.default with Config.prune = Config.Prune_off; schedules }
      ~flavor:Detect.Load_time_filters
      ~prepare:(fun vm -> Failatom_runtime.Vm.attach_filter_everywhere vm observer)
      program
  in
  !observed

(* Every exceptional method return of an exhaustive unpruned campaign,
   observed through a JWG-style filter: the escaping class must be in
   the method's static may-raise set, unless the exception is one the
   injector manufactured (marker message "injected").  This is exactly
   the premise of [--prune drop] — a point whose class the analysis
   rules out can never fire on its own. *)
let prop_drop_soundness =
  QCheck2.Test.make ~name:"may-raise covers every natural escape" ~count:25
    ~long_factor ~print:Test_random_pipeline.print_spec
    Test_random_pipeline.gen_program_spec (fun spec ->
      let program = parse (Test_random_pipeline.render_spec spec) in
      let flow = flow_of program in
      match
        List.find_opt
          (fun (m, e) -> not (Exnflow.can_raise flow m e))
          (natural_escapes program)
      with
      | None -> true
      | Some (m, e) ->
        QCheck2.Test.fail_reportf "%s escaped %s but may-raise excludes it" e
          (Method_id.to_string m))

(* The same observer over the concurrent apps under the schedule
   sweep: may-raise sets are per method, so no interleaving may let a
   class escape that the analysis rules out — the premise of applying
   drop to concurrent programs. *)
let test_drop_soundness_swept () =
  List.iter
    (fun (app : Registry.t) ->
      let program = parse app.Registry.source in
      let flow = flow_of program in
      let escapes = List.sort_uniq compare (natural_escapes ~schedules:sweep program) in
      Alcotest.(check bool) (app.Registry.name ^ ": escapes observed") true (escapes <> []);
      List.iter
        (fun (m, e) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s escaped %s" app.Registry.name e
               (Method_id.to_string m))
            true (Exnflow.can_raise flow m e))
        escapes)
    Registry.concurrent_apps

let suite =
  [ Alcotest.test_case "may-raise: raise sites and closure" `Quick
      test_may_raise_sites;
    Alcotest.test_case "may-raise: dispatch is conservative" `Quick
      test_dispatch_conservative;
    Alcotest.test_case "never-throws subsumes syntactic purity" `Quick
      test_subsumes_syntactic_purity;
    Alcotest.test_case "blindness partition" `Quick test_partition;
    Alcotest.test_case "coalesce == off on every app/flavor/engine" `Slow
      test_differential_matrix;
    Alcotest.test_case "walk census" `Quick test_walk_census;
    Alcotest.test_case "drop: fewer runs, verdicts a subset" `Quick
      test_drop_subset;
    QCheck_alcotest.to_alcotest prop_drop_soundness;
    Alcotest.test_case "may-raise covers every natural escape: concurrent apps, swept"
      `Quick test_drop_soundness_swept ]
