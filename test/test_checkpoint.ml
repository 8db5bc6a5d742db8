(* Tests for checkpoint/rollback (paper Listing 2) — the copy-on-write
   checkpoint every atomicity wrapper uses (§6.2), checked against the
   paper's eager copy as the reference — and for the mark-sweep
   collector that reclaims objects discarded by a rollback. *)

open Failatom_runtime

let check = Alcotest.check

let canon heap v = Object_graph.canonical heap v
let graph_equal heap a b = Object_graph.equal (canon heap a) (canon heap b)

let fixture () =
  let heap = Heap.create () in
  let child = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let root =
    Heap.alloc_object heap ~cls:"R" [ ("c", Value.Ref child); ("n", Value.Int 0) ]
  in
  (heap, root, child)

(* Both engines behind one shape: [take heap roots] returns the
   rollback-and-release action.  The copy-on-write checkpoint copies
   lazily, on first write, hence its "lazy" case names. *)
type engine = Heap.t -> Value.t list -> unit -> unit

let eager : engine =
 fun heap roots ->
  let cp = Checkpoint.Eager.take heap roots in
  fun () -> Checkpoint.Eager.rollback cp

let cow : engine =
 fun heap roots ->
  let cp = Checkpoint.take ~closed:true heap roots in
  fun () ->
    Checkpoint.rollback cp;
    Checkpoint.dispose cp

let rollback_restores (take : engine) () =
  let heap, root, child = fixture () in
  let before = canon heap (Value.Ref root) in
  let rollback = take heap [ Value.Ref root ] in
  Heap.set_field heap root "n" (Value.Int 42);
  Heap.set_field heap child "v" (Value.Str "corrupted");
  check Alcotest.bool "mutated" false
    (Object_graph.equal before (canon heap (Value.Ref root)));
  rollback ();
  check Alcotest.bool "rolled back" true
    (Object_graph.equal before (canon heap (Value.Ref root)))

let rollback_alias_visible (take : engine) () =
  (* Rollback happens in place: an alias held by someone else observes
     the restored state (unlike a copy-and-swap implementation). *)
  let heap, root, child = fixture () in
  let rollback = take heap [ Value.Ref root ] in
  Heap.set_field heap child "v" (Value.Int 9);
  rollback ();
  check Alcotest.bool "alias sees rollback" true
    (Heap.get_field heap child "v" = Some (Value.Int 1))

let structural_rollback (take : engine) () =
  (* Rolling back must undo link changes, not just scalar fields. *)
  let heap, root, child = fixture () in
  let before = canon heap (Value.Ref root) in
  let rollback = take heap [ Value.Ref root ] in
  let intruder = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 5) ] in
  Heap.set_field heap root "c" (Value.Ref intruder);
  Heap.set_field heap child "v" (Value.Int 77);
  rollback ();
  check Alcotest.bool "links restored" true
    (Object_graph.equal before (canon heap (Value.Ref root)))

let nested_checkpoints (take : engine) () =
  let heap, root, _child = fixture () in
  let g0 = canon heap (Value.Ref root) in
  let outer = take heap [ Value.Ref root ] in
  Heap.set_field heap root "n" (Value.Int 1);
  let g1 = canon heap (Value.Ref root) in
  let inner = take heap [ Value.Ref root ] in
  Heap.set_field heap root "n" (Value.Int 2);
  inner ();
  check Alcotest.bool "inner rollback to mid state" true
    (Object_graph.equal g1 (canon heap (Value.Ref root)));
  outer ();
  check Alcotest.bool "outer rollback to start" true
    (Object_graph.equal g0 (canon heap (Value.Ref root)))

let test_lazy_copies_on_demand () =
  let heap, root, child = fixture () in
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  check Alcotest.int "nothing copied upfront" 0 (Checkpoint.size cp);
  Heap.set_field heap root "n" (Value.Int 5);
  check Alcotest.int "one payload after first write" 1 (Checkpoint.size cp);
  Heap.set_field heap root "n" (Value.Int 6);
  check Alcotest.int "second write to same object free" 1 (Checkpoint.size cp);
  Heap.set_field heap child "v" (Value.Int 7);
  check Alcotest.int "two payloads" 2 (Checkpoint.size cp);
  Checkpoint.rollback cp;
  Checkpoint.dispose cp;
  check Alcotest.bool "lazy rollback correct" true
    (Heap.get_field heap root "n" = Some (Value.Int 0)
     && Heap.get_field heap child "v" = Some (Value.Int 1))

let test_eager_copies_upfront () =
  let heap, root, _ = fixture () in
  let cp = Checkpoint.Eager.take heap [ Value.Ref root ] in
  check Alcotest.int "whole graph copied" 2 (Checkpoint.Eager.size cp)

let test_dispose_detaches_barrier () =
  let heap, root, _ = fixture () in
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  Checkpoint.dispose cp;
  check Alcotest.int "shadow removed" 0 (List.length heap.Heap.shadows);
  Heap.set_field heap root "n" (Value.Int 8);
  check Alcotest.int "no recording after dispose" 0 (Checkpoint.size cp)

let test_with_checkpoint_disposes () =
  let heap, root, _ = fixture () in
  Checkpoint.with_checkpoint heap [ Value.Ref root ]
    (fun _cp -> Heap.set_field heap root "n" (Value.Int 3));
  check Alcotest.int "shadow gone after scope" 0 (List.length heap.Heap.shadows)

(* Another thread's write to an object outside the protected graph
   survives the rollback, whatever the checkpoint claims about its
   roots; its write to an object inside the graph is undone, as an
   eager checkpoint of the same roots would undo it. *)
let test_foreign_write_survives () =
  List.iter
    (fun closed ->
      let heap, root, child = fixture () in
      let other = Heap.alloc_object heap ~cls:"U" [ ("w", Value.Int 0) ] in
      let cp = Checkpoint.take ~closed heap [ Value.Ref root ] in
      Heap.set_field heap root "n" (Value.Int 1);
      Heap.set_cur_tid heap 1;
      Heap.set_field heap other "w" (Value.Int 5);
      Heap.set_field heap child "v" (Value.Int 6);
      Heap.set_cur_tid heap 0;
      Checkpoint.rollback cp;
      Checkpoint.dispose cp;
      let label what = Printf.sprintf "%s (closed=%b)" what closed in
      check Alcotest.bool (label "unrelated write survives") true
        (Heap.get_field heap other "w" = Some (Value.Int 5));
      check Alcotest.bool (label "graph restored") true
        (Heap.get_field heap root "n" = Some (Value.Int 0)
         && Heap.get_field heap child "v" = Some (Value.Int 1)))
    [ true; false ]

(* An object outside the roots' graph is not protected unless the
   checkpoint is closed: an open checkpoint keeps its writes. *)
let test_open_checkpoint_keeps_outside_writes () =
  let heap, root, _ = fixture () in
  let arg = Heap.alloc_object heap ~cls:"B" [ ("v", Value.Int 0) ] in
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  Heap.set_field heap arg "v" (Value.Int 1);
  Heap.set_field heap root "n" (Value.Int 1);
  Checkpoint.rollback cp;
  Checkpoint.dispose cp;
  check Alcotest.bool "outside write kept" true
    (Heap.get_field heap arg "v" = Some (Value.Int 1));
  check Alcotest.bool "root restored" true
    (Heap.get_field heap root "n" = Some (Value.Int 0))

(* ---------------- GC ---------------- *)

let test_gc_collects_unreachable () =
  let vm = Vm.create () in
  let heap = vm.Vm.heap in
  let keep = Heap.alloc_object heap ~cls:"K" [] in
  let _garbage = Heap.alloc_object heap ~cls:"G" [] in
  Vm.set_global vm "root" (Value.Ref keep);
  let freed = Gc_heap.collect vm in
  check Alcotest.int "one object collected" 1 freed;
  check Alcotest.bool "root survives" true (Heap.mem heap keep)

let test_gc_respects_extra_roots () =
  let vm = Vm.create () in
  let heap = vm.Vm.heap in
  let pinned = Heap.alloc_object heap ~cls:"P" [] in
  let freed = Gc_heap.collect ~extra_roots:[ Value.Ref pinned ] vm in
  check Alcotest.int "nothing collected" 0 freed;
  check Alcotest.bool "pinned survives" true (Heap.mem heap pinned)

let test_gc_cyclic_garbage () =
  let vm = Vm.create () in
  let heap = vm.Vm.heap in
  let a = Heap.alloc_object heap ~cls:"C" [ ("n", Value.Null) ] in
  let b = Heap.alloc_object heap ~cls:"C" [ ("n", Value.Ref a) ] in
  Heap.set_field heap a "n" (Value.Ref b);
  (* The cycle is unreachable: reference counting would leak it, the
     tracing collector must not (paper §5.1, fourth limitation). *)
  let freed = Gc_heap.collect vm in
  check Alcotest.int "cycle collected" 2 freed

let test_rollback_then_gc () =
  let vm = Vm.create () in
  let heap = vm.Vm.heap in
  let root = Heap.alloc_object heap ~cls:"R" [ ("c", Value.Null) ] in
  Vm.set_global vm "root" (Value.Ref root);
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  let junk = Heap.alloc_object heap ~cls:"J" [] in
  Heap.set_field heap root "c" (Value.Ref junk);
  Checkpoint.rollback cp;
  Checkpoint.dispose cp;
  let freed = Gc_heap.collect vm in
  check Alcotest.int "discarded object reclaimed" 1 freed;
  check Alcotest.bool "junk gone" false (Heap.mem heap junk)

(* ---------------- properties ---------------- *)

(* Random heaps and random mutation storms.  The copy-on-write
   checkpoint is differential against the eager reference: the same
   seeded graph and mutations run on two heaps, one under each engine,
   and after rollback every payload of the two heaps must be equal —
   not only the root's canonical form.  Mutations touch objects
   reachable from the roots at take time, or objects allocated after
   it: the precondition of a closed checkpoint. *)
let build_random_graph heap rs n =
  let ids =
    Array.init n (fun i ->
        Heap.alloc_object heap ~cls:(if i mod 2 = 0 then "A" else "B")
          [ ("v", Value.Int (Random.State.int rs 5)); ("p", Value.Null) ])
  in
  Array.iter
    (fun id ->
      if Random.State.bool rs then
        Heap.set_field heap id "p" (Value.Ref ids.(Random.State.int rs n)))
    ids;
  ids

(* Mutates objects drawn from [targets] (grown with every fresh
   allocation), linking to any object of [ids]. *)
let mutate_randomly heap rs ~targets ids steps =
  let targets = ref targets in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  for _ = 1 to steps do
    let id = pick !targets in
    match Random.State.int rs 4 with
    | 0 -> Heap.set_field heap id "v" (Value.Int (Random.State.int rs 100))
    | 1 -> Heap.set_field heap id "p" Value.Null
    | 2 -> Heap.set_field heap id "p" (Value.Ref (pick ids))
    | _ ->
      (* link in a freshly allocated object *)
      let fresh = Heap.alloc_object heap ~cls:"F" [ ("v", Value.Int 0); ("p", Value.Null) ] in
      Heap.set_field heap id "p" (Value.Ref fresh);
      targets := Array.append !targets [| fresh |]
  done

(* A payload as comparable data: class and sorted fields, or elements. *)
let payload_repr heap id =
  match Heap.get heap id with
  | Heap.Obj { cls; _ } ->
    `Obj
      (cls, List.map (fun k -> (k, Heap.get_field heap id k)) (Heap.field_names heap id))
  | Heap.Arr a -> `Arr (Array.to_list a)

let heap_repr heap =
  List.init (heap.Heap.next_id - 1) (fun i ->
      let id = i + 1 in
      if Heap.mem heap id then Some (payload_repr heap id) else None)

let rollback_prop =
  QCheck2.Test.make ~name:"rollback restores random graphs (cow = eager)" ~count:200
    QCheck2.Gen.(quad (int_range 1 10) (int_range 1 25) bool int)
    (fun (n, steps, closed, seed) ->
      let run take =
        let heap = Heap.create () in
        let rs = Random.State.make [| seed |] in
        let ids = build_random_graph heap rs n in
        let root = Value.Ref ids.(0) in
        let targets =
          Array.of_list
            (List.sort compare
               (Hashtbl.fold (fun id () acc -> id :: acc)
                  (Object_graph.reachable_via (Heap.get heap) [ root ]) []))
        in
        let rollback = take heap [ root ] in
        mutate_randomly heap rs ~targets ids steps;
        rollback ();
        heap_repr heap
      in
      let cow heap roots =
        let cp = Checkpoint.take ~closed heap roots in
        fun () ->
          Checkpoint.rollback cp;
          Checkpoint.dispose cp
      in
      run eager = run cow)

let nested_rollback_prop =
  QCheck2.Test.make ~name:"nested lazy checkpoints restore in LIFO order" ~count:60
    QCheck2.Gen.(triple (int_range 2 8) (int_range 1 10) int)
    (fun (n, steps, seed) ->
      let heap = Heap.create () in
      let rs = Random.State.make [| seed |] in
      let ids = build_random_graph heap rs n in
      let root = Value.Ref ids.(0) in
      let g0 = canon heap root in
      let outer = Checkpoint.take heap [ root ] in
      mutate_randomly heap rs ~targets:ids ids steps;
      let g1 = canon heap root in
      let inner = Checkpoint.take heap [ root ] in
      mutate_randomly heap rs ~targets:ids ids steps;
      Checkpoint.rollback inner;
      Checkpoint.dispose inner;
      let mid_ok = Object_graph.equal g1 (canon heap root) in
      Checkpoint.rollback outer;
      Checkpoint.dispose outer;
      mid_ok && Object_graph.equal g0 (canon heap root))

(* The collector never frees anything reachable from the surviving
   roots, and repeated collection is idempotent. *)
let gc_safety_prop =
  QCheck2.Test.make ~name:"gc preserves reachable objects" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) int)
    (fun (n, seed) ->
      let vm = Vm.create () in
      let heap = vm.Vm.heap in
      let rs = Random.State.make [| seed |] in
      let ids = build_random_graph heap rs n in
      let root = Value.Ref ids.(0) in
      Vm.set_global vm "root" root;
      let before = canon heap root in
      ignore (Gc_heap.collect vm);
      let after_first = canon heap root in
      let second = Gc_heap.collect vm in
      Object_graph.equal before after_first && second = 0)

let engine_cases name engine =
  [ Alcotest.test_case (name ^ ": rollback restores") `Quick (rollback_restores engine);
    Alcotest.test_case (name ^ ": alias sees rollback") `Quick (rollback_alias_visible engine);
    Alcotest.test_case (name ^ ": structural rollback") `Quick (structural_rollback engine);
    Alcotest.test_case (name ^ ": nested checkpoints") `Quick (nested_checkpoints engine) ]

let suite =
  engine_cases "eager" eager
  @ engine_cases "lazy" cow
  @ [ Alcotest.test_case "lazy copies on demand" `Quick test_lazy_copies_on_demand;
      Alcotest.test_case "eager copies upfront" `Quick test_eager_copies_upfront;
      Alcotest.test_case "dispose detaches barrier" `Quick test_dispose_detaches_barrier;
      Alcotest.test_case "with_checkpoint disposes" `Quick test_with_checkpoint_disposes;
      Alcotest.test_case "foreign write outside the graph survives" `Quick
        test_foreign_write_survives;
      Alcotest.test_case "open checkpoint keeps outside writes" `Quick
        test_open_checkpoint_keeps_outside_writes;
      Alcotest.test_case "gc collects unreachable" `Quick test_gc_collects_unreachable;
      Alcotest.test_case "gc extra roots" `Quick test_gc_respects_extra_roots;
      Alcotest.test_case "gc cyclic garbage" `Quick test_gc_cyclic_garbage;
      Alcotest.test_case "rollback then gc" `Quick test_rollback_then_gc;
      QCheck_alcotest.to_alcotest rollback_prop;
      QCheck_alcotest.to_alcotest nested_rollback_prop;
      QCheck_alcotest.to_alcotest gc_safety_prop ]
