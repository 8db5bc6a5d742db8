(* Tests for static exception-freedom: the never-throws set of the
   exception-flow analysis, its syntactic baseline (purity.ml), and
   [--prune drop], which skips the injections a method cannot
   experience. *)

open Failatom_core

let parse = Failatom_minilang.Minilang.parse

let never_throws program =
  let img = Failatom_minilang.Compile.image program in
  Exnflow.never_throws (Exnflow.analyze img program)

let drop = { Config.default with Config.prune = Config.Prune_drop }

let src =
  {|
class Pure {
  field n;
  // never throws: reads/writes this, safe builtins only
  method peek() { return this.n; }
  method poke(v) { this.n = v; return null; }
  method describe() { return "n=" + str(this.n); }
  // calls only never-throwing methods
  method relay(v) { this.poke(v); return this.peek(); }
  // throws directly
  method explode() throws IllegalStateException {
    throw new IllegalStateException("boom");
  }
  // division can raise ArithmeticException
  method ratio(a, b) { return a / b; }
  // indexing can raise
  method pick(arr) { return arr[0]; }
  // field access on a non-this receiver can NPE
  method spy(other) { return other.n; }
  // allocation may fail
  method mkobj() throws OutOfMemoryError { return new Pure(); }
  // calls a thrower
  method trigger() throws IllegalStateException { return this.explode(); }
  // try/catch does not launder a throwing body
  method guarded() {
    try { this.explode(); } catch (IllegalStateException e) { }
    return null;
  }
}
function main() {
  var p = new Pure();
  p.poke(3);
  check(p.relay(4) == 4, "relay");
  check(p.describe() == "n=4", "describe");
  check(p.ratio(8, 2) == 4, "ratio");
  check(p.pick([7]) == 7, "pick");
  var q = new Pure();
  q.poke(1);
  check(p.spy(q) == 1, "spy");
  p.mkobj();
  try { p.trigger(); } catch (IllegalStateException e) { }
  p.guarded();
  println("done");
  return 0;
}
|}

let never = lazy (never_throws (parse src))

let check_never name expected () =
  let got = Method_id.Set.mem (Method_id.make "Pure" name) (Lazy.force never) in
  Alcotest.(check bool) name expected got

let test_set_contents () =
  let names =
    List.map
      (fun (id : Method_id.t) -> id.Method_id.name)
      (Method_id.Set.elements (Lazy.force never))
  in
  Alcotest.(check (list string)) "exactly the pure methods"
    [ "describe"; "peek"; "poke"; "relay" ]
    (List.sort compare names)

(* The syntactic baseline dispatches by name: if ANY class defines a
   throwing [peek], no [peek] is considered exception-free.  The
   production analysis (Exnflow) keeps [Pure.peek] clean — its body
   cannot raise and injections into [Impostor.peek] have their own
   point — but a caller dispatching [peek] by name is still poisoned
   in both. *)
let test_dynamic_dispatch_conservatism () =
  let src2 =
    src
    ^ {|
class Impostor {
  field n;
  method peek() throws IllegalStateException {
    throw new IllegalStateException("impostor");
  }
}
|}
  in
  let program = parse src2 in
  let syntactic = Purity.never_throws_syntactic program in
  Alcotest.(check bool) "peek poisoned by impostor (syntactic)" false
    (Method_id.Set.mem (Method_id.make "Pure" "peek") syntactic);
  Alcotest.(check bool) "relay poisoned transitively (syntactic)" false
    (Method_id.Set.mem (Method_id.make "Pure" "relay") syntactic);
  Alcotest.(check bool) "poke still clean (syntactic)" true
    (Method_id.Set.mem (Method_id.make "Pure" "poke") syntactic);
  let precise = never_throws program in
  Alcotest.(check bool) "Pure.peek stays clean under exnflow" true
    (Method_id.Set.mem (Method_id.make "Pure" "peek") precise);
  Alcotest.(check bool) "Impostor.peek dirty under exnflow" false
    (Method_id.Set.mem (Method_id.make "Impostor" "peek") precise);
  (* relay dispatches [peek] by name: the impostor's definition is a
     possible target, so transitive poisoning survives the upgrade *)
  Alcotest.(check bool) "relay poisoned transitively (exnflow)" false
    (Method_id.Set.mem (Method_id.make "Pure" "relay") precise)

(* Drop removes the generic injection points a method provably cannot
   experience — and with them, the conservative false positives of
   paper §4.3: [relay] mutates via [poke] and is only ever exposed by
   injections into the provably exception-free [peek]/[poke], so drop
   re-classifies it as atomic. *)
let test_fewer_injections_with_drop () =
  let program = parse src in
  let base = Detect.run program in
  let dropped = Detect.run ~config:drop program in
  Alcotest.(check bool) "fewer injections" true
    (dropped.Detect.injections < base.Detect.injections);
  Alcotest.(check bool) "still transparent" true dropped.Detect.transparent;
  let relay = Method_id.make "Pure" "relay" in
  Alcotest.(check bool) "relay is a false positive without drop" true
    (Classify.verdict (Classify.classify base) relay = Some Classify.Pure_non_atomic);
  Alcotest.(check bool) "relay re-classified atomic under drop" true
    (Classify.verdict (Classify.classify dropped) relay = Some Classify.Atomic)

let test_injectable_empty_under_drop () =
  let program = parse src in
  let flow = Exnflow.analyze (Failatom_minilang.Compile.image program) program in
  let analyzer = Analyzer.analyze ~flow Config.default program in
  Alcotest.(check (list string)) "no injection points for peek" []
    (Analyzer.injectable_for analyzer (Method_id.make "Pure" "peek"));
  Alcotest.(check bool) "explode keeps its points" true
    (Analyzer.injectable_for analyzer (Method_id.make "Pure" "explode") <> [])

(* On the workload apps drop shrinks the experiment while the
   non-atomic sets stay identical. *)
let test_drop_on_app () =
  let app = Option.get (Failatom_apps.Registry.find "LinkedList") in
  let program = parse app.Failatom_apps.Registry.source in
  let base = Detect.run program in
  let dropped = Detect.run ~config:drop program in
  Alcotest.(check bool) "fewer injections on LinkedList" true
    (dropped.Detect.injections < base.Detect.injections);
  let non_atomic d = Classify.non_atomic_methods (Classify.classify d) in
  Alcotest.(check (list string)) "same non-atomic set"
    (List.map Method_id.to_string (non_atomic base))
    (List.map Method_id.to_string (non_atomic dropped))

let suite =
  [ Alcotest.test_case "reader is exception-free" `Quick (check_never "peek" true);
    Alcotest.test_case "writer is exception-free" `Quick (check_never "poke" true);
    Alcotest.test_case "transitive cleanliness" `Quick (check_never "relay" true);
    Alcotest.test_case "throw poisons" `Quick (check_never "explode" false);
    Alcotest.test_case "division poisons" `Quick (check_never "ratio" false);
    Alcotest.test_case "indexing poisons" `Quick (check_never "pick" false);
    Alcotest.test_case "foreign receiver poisons" `Quick (check_never "spy" false);
    Alcotest.test_case "allocation poisons" `Quick (check_never "mkobj" false);
    Alcotest.test_case "transitive poisoning" `Quick (check_never "trigger" false);
    Alcotest.test_case "catch does not launder" `Quick (check_never "guarded" false);
    Alcotest.test_case "set contents" `Quick test_set_contents;
    Alcotest.test_case "dispatch conservatism" `Quick test_dynamic_dispatch_conservatism;
    Alcotest.test_case "fewer injections" `Quick test_fewer_injections_with_drop;
    Alcotest.test_case "injectable emptied" `Quick test_injectable_empty_under_drop;
    Alcotest.test_case "drop on LinkedList" `Slow test_drop_on_app ]
