(* The flat-bytecode engine (lib/minilang/bytecode.ml emission,
   lib/runtime/exec.ml dispatch).

   The contract under test is observational stability: for every bundled
   application, output, step/call/inline-cache/allocation counters,
   results and — through a full detection phase in both flavors — run
   logs must match the golden engine table ([Engine_golden],
   test/golden/engine_runs.txt).  On top of the table there are unit
   tests for the peephole superinstruction fusion, the monomorphic
   inline caches under polymorphic and layout-shifting workloads, and
   properties for the incremental canonicalization memo
   ([Object_graph.Memo]) that the detector's snapshot comparisons lean
   on. *)

open Failatom_runtime
open Failatom_minilang
open Failatom_core
open Failatom_apps

let check = Alcotest.check

(* ---------------- the app matrix ---------------- *)

let app_plain_case (app : Registry.t) =
  Alcotest.test_case app.Registry.name `Quick (fun () ->
      Engine_golden.check ("plain " ^ app.Registry.name))

(* The strongest form of the contract: a complete detection phase —
   injection campaign, snapshots, shadows, marks, call profile — saved
   as a run log must match the table's digest in both flavors. *)
let app_detect_case (app : Registry.t) =
  Alcotest.test_case ("detect " ^ app.Registry.name) `Quick (fun () ->
      List.iter
        (fun flavor ->
          Engine_golden.check
            (Printf.sprintf "detect %s %s" app.Registry.name (Detect.flavor_name flavor)))
        [ Detect.Source_weaving; Detect.Load_time_filters ])

(* The table holds exactly the rows the checks recompute, in order: an
   app added to the catalog without its rows, or a row left behind by
   a removed app, fails here. *)
let test_golden_table_complete () =
  check
    Alcotest.(list string)
    "committed keys = computed keys"
    (List.map fst Engine_golden.rows)
    (Engine_golden.committed_keys ())

(* ---------------- superinstruction fusion ---------------- *)

(* A linkage just rich enough to emit free-standing bodies: one known
   two-argument function [g], no classes, no methods. *)
let stub_linkage =
  { Bytecode.lk_resolve = (fun _ _ -> -1);
    lk_fn =
      (fun name ->
        if name = "g" then Some (2, fun _ _ -> Value.Null) else None);
    lk_class = (fun _ -> None);
    lk_is_exc = (fun _ _ -> false);
    lk_exn_matches = (fun _ _ _ -> false) }

(* Decodes a flat instruction array back to its opcode sequence using
   the per-opcode widths (instructions are fixed-width; sub-blocks live
   behind site records and are not traversed). *)
let opcodes (ops : int array) =
  let acc = ref [] in
  let pc = ref 0 in
  while !pc < Array.length ops do
    let op = ops.(!pc) in
    acc := op :: !acc;
    pc := !pc + Exec.op_width.(op)
  done;
  List.rev !acc

let main_opcodes ?defining params src_body =
  let src =
    let helpers = "function g(x, y) { return x; }" in
    match defining with
    | None ->
      Printf.sprintf "%s function probe(%s) { %s }" helpers
        (String.concat ", " params) src_body
    | Some _ ->
      Printf.sprintf "%s class C { field f; field a; field b; method probe(%s) { %s } }"
        helpers (String.concat ", " params) src_body
  in
  let prog = Minilang.parse src in
  let params', body =
    List.find_map
      (function
        | Ast.Func_decl f when f.Ast.f_name = "probe" -> Some (f.Ast.f_params, f.Ast.f_body)
        | Ast.Class_decl c ->
          List.find_map
            (fun (m : Ast.meth_decl) ->
              if m.Ast.m_name = "probe" then Some (m.Ast.m_params, m.Ast.m_body) else None)
            c.Ast.c_methods
        | Ast.Func_decl _ -> None)
      prog
    |> Option.get
  in
  let code, _ = Bytecode.compile_body stub_linkage ~defining params' body in
  opcodes code.Exec.c_main

let contains ops op = List.mem op ops

let check_fused name ops fused_op ~absent =
  check Alcotest.bool (name ^ ": emits " ^ Exec.op_names.(fused_op)) true
    (contains ops fused_op);
  List.iter
    (fun op ->
      check Alcotest.bool
        (name ^ ": no residual " ^ Exec.op_names.(op))
        false (contains ops op))
    absent

let test_fuse_lcbjf () =
  (* load; const; binop; jf — the universal guard shape *)
  let ops = main_opcodes [ "x" ] "if (x < 10) { return 1; } return 2;" in
  check_fused "lcbjf" ops Exec.op_lcbjf ~absent:[ Exec.op_binop; Exec.op_jf ]

let test_fuse_tret () =
  (* this; ret — the builder-pattern [return this] epilogue *)
  let ops = main_opcodes ~defining:("C", None) [] "return this;" in
  check_fused "tret" ops Exec.op_tret ~absent:[ Exec.op_this; Exec.op_ret ]

let test_fuse_csetft () =
  (* const; setfield-on-this — field initialization stores *)
  let ops = main_opcodes ~defining:("C", None) [] "this.f = 5; return 0;" in
  check_fused "csetft" ops Exec.op_csetft
    ~absent:[ Exec.op_setft; Exec.op_setfield ]

let test_fuse_tfcbjf () =
  (* this-field; const; binop; jf — guards over receiver state *)
  let ops =
    main_opcodes ~defining:("C", None) [] "if (this.f == 0) { return 1; } return 2;"
  in
  check_fused "tfcbjf" ops Exec.op_tfcbjf
    ~absent:[ Exec.op_tfcb; Exec.op_binop; Exec.op_jf ]

let test_fuse_fncalltf2 () =
  (* two this-field loads feeding a static function call *)
  let ops =
    main_opcodes ~defining:("C", None) [] "return g(this.a, this.b);"
  in
  check_fused "fncalltf2" ops Exec.op_fncalltf2
    ~absent:[ Exec.op_fncalltf; Exec.op_fncall; Exec.op_thisf ]

let test_fusion_blocked_across_labels () =
  (* the [x] load sits at a jump target (loop back-edge): fusing it
     with the following compare would execute the load under a stale
     operand when entered from the branch, so emission must keep the
     plain sequence at the label *)
  let ops =
    main_opcodes [ "x" ] "while (x < 3) { x = x + 1; } return x;"
  in
  (* the loop becomes a site record; the main stream keeps WHILE *)
  check Alcotest.bool "while persists as a site" true (contains ops Exec.op_while)

(* ---------------- inline caches ---------------- *)

let test_ic_polymorphic_site () =
  (* one call site, receivers alternating between two classes: the
     monomorphic cache must re-resolve on every class change and still
     dispatch correctly *)
  let r = Engine_golden.check_probe "ic-polymorphic-site" in
  check Alcotest.string "sum" "value 30" r.Engine_golden.result;
  (* the alternation defeats the cache by construction *)
  check Alcotest.bool "site actually misses" true (r.Engine_golden.ic_misses > 2)

let test_ic_shadowed_field_layout () =
  (* an inherited getter runs the same code object for receivers of
     both classes; the subclass's extra field shifts the layout, so the
     field-offset cache inside the shared THISF site must notice the
     class change rather than read a stale slot *)
  let r = Engine_golden.check_probe "ic-shadowed-field-layout" in
  check Alcotest.string "layout-correct reads" "value 300" r.Engine_golden.result

let test_ic_inherited_init () =
  (* [new Sub(...)] where [init] lives on the superclass: the static
     new-site resolution must find the inherited initializer, and a
     second class at the same textual site must not reuse it *)
  let r = Engine_golden.check_probe "ic-inherited-init" in
  check Alcotest.string "inherited init ran" "value 42" r.Engine_golden.result

let test_ic_shared_across_instantiations () =
  (* inline caches live in the image and are shared by every VM
     instantiated from it: a second run (cache already warm) must be
     correct, and its hit counter must not be worse than the first's *)
  let src =
    {|
class C { field n; method init() { this.n = 0; return this; }
          method bump() { this.n = this.n + 1; return this.n; } }
function main() {
  var c = new C();
  var s = 0;
  for (var i = 0; i < 50; i = i + 1) { s = c.bump(); }
  return s;
}
|}
  in
  let image = Compile.image (Minilang.parse src) in
  let run () =
    let vm = Compile.instantiate image in
    let v = Compile.run_main vm in
    (Value.to_display_string v, vm.Vm.ic_hits)
  in
  let r1, hits1 = run () in
  let r2, hits2 = run () in
  check Alcotest.string "first run" "50" r1;
  check Alcotest.string "second run (warm cache)" "50" r2;
  check Alcotest.bool "warm run hits at least as often" true (hits2 >= hits1)

(* ---------------- incremental canonicalization memo ---------------- *)

let test_memo_hit_and_invalidate () =
  let heap = Heap.create () in
  let child = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let root =
    Heap.alloc_object heap ~cls:"R" [ ("c", Value.Ref child); ("n", Value.Int 0) ]
  in
  let memo = Object_graph.Memo.create () in
  let roots = [ Value.Ref root ] in
  let n1 = Object_graph.Memo.canonical_many memo heap roots in
  check Alcotest.int "first lookup misses" 1 (Object_graph.Memo.misses memo);
  let n2 = Object_graph.Memo.canonical_many memo heap roots in
  check Alcotest.int "unchanged lookup hits" 1 (Object_graph.Memo.hits memo);
  check Alcotest.bool "hit is physically the cached node" true (n1 == n2);
  (* a write to a covered object invalidates *)
  Heap.set_field heap child "v" (Value.Int 2);
  let n3 = Object_graph.Memo.canonical_many memo heap roots in
  check Alcotest.int "write forces recompute" 2 (Object_graph.Memo.misses memo);
  check Alcotest.bool "recomputed form differs" false (Object_graph.equal n1 n3);
  check Alcotest.bool "recomputed form is from-scratch" true
    (Object_graph.equal n3 (Object_graph.canonical_many heap roots))

let test_memo_unrelated_write_revalidates () =
  let heap = Heap.create () in
  let root = Heap.alloc_object heap ~cls:"R" [ ("n", Value.Int 0) ] in
  let other = Heap.alloc_object heap ~cls:"O" [ ("n", Value.Int 0) ] in
  let memo = Object_graph.Memo.create () in
  let roots = [ Value.Ref root ] in
  let n1 = Object_graph.Memo.canonical_many memo heap roots in
  (* a write outside the covered graph bumps the heap generation but
     not the covered stamps: the entry revalidates via the stamp scan *)
  Heap.set_field heap other "n" (Value.Int 9);
  let n2 = Object_graph.Memo.canonical_many memo heap roots in
  check Alcotest.int "unrelated write still hits" 1 (Object_graph.Memo.hits memo);
  check Alcotest.bool "same node served" true (n1 == n2)

let test_memo_rollback_invalidates () =
  (* checkpoint rollback restores payloads behind the write barrier's
     back; the restore must stamp, or the memo would serve the mutated
     form after the rollback *)
  let heap = Heap.create () in
  let root = Heap.alloc_object heap ~cls:"R" [ ("n", Value.Int 0) ] in
  let memo = Object_graph.Memo.create () in
  let roots = [ Value.Ref root ] in
  let before = Object_graph.Memo.canonical_many memo heap roots in
  Checkpoint.with_checkpoint heap roots (fun cp ->
      Heap.set_field heap root "n" (Value.Int 1);
      ignore (Object_graph.Memo.canonical_many memo heap roots);
      Checkpoint.rollback cp);
  let after = Object_graph.Memo.canonical_many memo heap roots in
  check Alcotest.bool "restored form equals the original" true
    (Object_graph.equal before after);
  check Alcotest.bool "restored form is from-scratch" true
    (Object_graph.equal after (Object_graph.canonical_many heap roots))

(* The property: through arbitrary interleavings of mutation storms and
   checkpoint/rollback cycles, the memoized canonical form always
   equals a from-scratch canonicalization, and a quiescent repeat
   lookup serves the identical node.  Generators are shared with the
   checkpoint suite. *)
let memo_incremental_prop =
  QCheck2.Test.make ~name:"memoized canonical == from-scratch under mutation"
    ~count:200
    QCheck2.Gen.(triple (int_range 1 10) (int_range 0 25) int)
    (fun (n, steps, seed) ->
      let heap = Heap.create () in
      let rs = Random.State.make [| seed |] in
      let ids = Test_checkpoint.build_random_graph heap rs n in
      let roots = [ Value.Ref ids.(0) ] in
      let memo = Object_graph.Memo.create () in
      let ok = ref true in
      for _round = 1 to 6 do
        (if Random.State.bool rs then
           Checkpoint.with_checkpoint heap roots
             (fun cp ->
               Test_checkpoint.mutate_randomly heap rs ~targets:ids ids steps;
               if Random.State.bool rs then Checkpoint.rollback cp)
         else Test_checkpoint.mutate_randomly heap rs ~targets:ids ids steps);
        let memoized = Object_graph.Memo.canonical_many memo heap roots in
        let scratch = Object_graph.canonical_many heap roots in
        if not (Object_graph.equal memoized scratch) then ok := false;
        let again = Object_graph.Memo.canonical_many memo heap roots in
        if not (again == memoized) then ok := false
      done;
      !ok)

(* Detection marks with the memo in the loop are exercised end-to-end
   by the app matrix above (Detect.run routes every eager snapshot and
   cow after-form through [Injection]'s memo); this suite additionally
   pins the memo's counters being visible through the injection state. *)
let test_memo_used_by_detection () =
  let module Obs = Failatom_obs.Obs in
  Obs.with_enabled true (fun () ->
      Obs.reset ();
      let app = Option.get (Registry.find "LinkedList") in
      let prog = Minilang.parse app.Registry.source in
      ignore (Detect.run ~flavor:Detect.Load_time_filters prog);
      let snap = Obs.snapshot () in
      let counter name =
        List.assoc_opt name snap.Obs.s_counters |> Option.value ~default:0
      in
      check Alcotest.bool "memo counters move under detection" true
        (counter "detect.canon_memo_hits" + counter "detect.canon_memo_misses" > 0))

(* ---------------- suite ---------------- *)

let suite =
  [ Alcotest.test_case "fusion: lcbjf" `Quick test_fuse_lcbjf;
    Alcotest.test_case "fusion: tret" `Quick test_fuse_tret;
    Alcotest.test_case "fusion: csetft" `Quick test_fuse_csetft;
    Alcotest.test_case "fusion: tfcbjf" `Quick test_fuse_tfcbjf;
    Alcotest.test_case "fusion: fncalltf2" `Quick test_fuse_fncalltf2;
    Alcotest.test_case "fusion: loops stay sites" `Quick test_fusion_blocked_across_labels;
    Alcotest.test_case "ic: polymorphic site" `Quick test_ic_polymorphic_site;
    Alcotest.test_case "ic: shadowed field layout" `Quick test_ic_shadowed_field_layout;
    Alcotest.test_case "ic: inherited init" `Quick test_ic_inherited_init;
    Alcotest.test_case "ic: shared across VMs" `Quick test_ic_shared_across_instantiations;
    Alcotest.test_case "memo: hit/invalidate" `Quick test_memo_hit_and_invalidate;
    Alcotest.test_case "memo: unrelated write" `Quick test_memo_unrelated_write_revalidates;
    Alcotest.test_case "memo: rollback" `Quick test_memo_rollback_invalidates;
    Alcotest.test_case "memo: detection counters" `Quick test_memo_used_by_detection;
    QCheck_alcotest.to_alcotest memo_incremental_prop;
    Alcotest.test_case "golden table covers the catalog" `Quick test_golden_table_complete ]
  @ List.map app_plain_case Registry.catalog
  @ List.map app_detect_case Registry.catalog
