(* Unit tests for the simulated heap and the value module. *)

open Failatom_runtime

let check = Alcotest.check

(* A field of a payload held outside the heap, such as a shadow's saved
   copy, read with [Heap.get_field] from a scratch heap. *)
let saved_field payload name =
  let scratch = Heap.create () in
  Heap.get_field scratch (Heap.alloc scratch payload) name

let test_value_basics () =
  check Alcotest.bool "truthy int" true (Value.truthy (Value.Int 2));
  check Alcotest.bool "falsy zero" false (Value.truthy (Value.Int 0));
  check Alcotest.bool "falsy null" false (Value.truthy Value.Null);
  check Alcotest.bool "truthy ref" true (Value.truthy (Value.Ref 3));
  check Alcotest.string "display string unquoted" "ab" (Value.to_display_string (Value.Str "ab"));
  check Alcotest.string "pp string quoted" "\"ab\"" (Value.to_string (Value.Str "ab"));
  check Alcotest.bool "ref identity equal" true (Value.equal (Value.Ref 1) (Value.Ref 1));
  check Alcotest.bool "ref identity differ" false (Value.equal (Value.Ref 1) (Value.Ref 2));
  check Alcotest.bool "cross type" false (Value.equal (Value.Int 0) Value.Null)

let test_alloc_get () =
  let heap = Heap.create () in
  let id = Heap.alloc_object heap ~cls:"C" [ ("x", Value.Int 1) ] in
  check Alcotest.(option string) "class_of" (Some "C") (Heap.class_of heap id);
  check Alcotest.bool "mem" true (Heap.mem heap id);
  check Alcotest.int "live count" 1 (Heap.live_count heap);
  check Alcotest.int "allocations" 1 (Heap.allocations heap);
  (match Heap.get_field heap id "x" with
   | Some (Value.Int 1) -> ()
   | _ -> Alcotest.fail "field x");
  Heap.set_field heap id "x" (Value.Str "s");
  (match Heap.get_field heap id "x" with
   | Some (Value.Str "s") -> ()
   | _ -> Alcotest.fail "field updated")

let test_dangling () =
  let heap = Heap.create () in
  let id = Heap.alloc_object heap ~cls:"C" [] in
  Heap.free heap id;
  check Alcotest.bool "freed" false (Heap.mem heap id);
  (try
     ignore (Heap.get heap id);
     Alcotest.fail "expected Dangling_reference"
   with Heap.Dangling_reference got -> check Alcotest.int "dangling id" id got)

let test_arrays () =
  let heap = Heap.create () in
  let id = Heap.alloc_array heap [| Value.Int 1; Value.Int 2 |] in
  check Alcotest.(option int) "array length" (Some 2) (Heap.array_length heap id);
  check Alcotest.bool "in bounds" true (Heap.get_elem heap id 1 = Some (Value.Int 2));
  check Alcotest.bool "out of bounds" true (Heap.get_elem heap id 2 = None);
  check Alcotest.bool "set in bounds" true (Heap.set_elem heap id 0 (Value.Int 9));
  check Alcotest.bool "set out of bounds" false (Heap.set_elem heap id 5 Value.Null);
  check Alcotest.bool "updated" true (Heap.get_elem heap id 0 = Some (Value.Int 9))

let test_write_barrier () =
  let heap = Heap.create () in
  let obj = Heap.alloc_object heap ~cls:"C" [ ("x", Value.Int 0) ] in
  let arr = Heap.alloc_array heap [| Value.Null |] in
  let fired f =
    let before = Heap.barrier_hits heap in
    f ();
    Heap.barrier_hits heap - before
  in
  let sh = Shadow.open_ heap in
  check Alcotest.int "set_field fires once" 1
    (fired (fun () -> Heap.set_field heap obj "x" (Value.Int 1)));
  check Alcotest.int "in-bounds set_elem fires once" 1
    (fired (fun () -> ignore (Heap.set_elem heap arr 0 (Value.Int 2))));
  (* out-of-bounds writes must not fire the barrier *)
  check Alcotest.int "out-of-bounds set_elem does not fire" 0
    (fired (fun () -> ignore (Heap.set_elem heap arr 9 (Value.Int 3))));
  check Alcotest.int "barrier saved exactly the written ids" 2 (Shadow.dirty_count sh);
  check Alcotest.bool "object and array saved" true
    (Shadow.is_dirty sh obj && Shadow.is_dirty sh arr);
  Shadow.close sh;
  (* restore_payload bypasses the barrier *)
  check Alcotest.int "no barrier on restore" 0
    (fired (fun () -> Heap.restore_payload heap obj (Heap.copy_payload (Heap.get heap obj))))

(* Writing a field the object does not have is a caller's bug: the
   layout is fixed at allocation. *)
let test_set_missing_field () =
  let heap = Heap.create () in
  let id = Heap.alloc_object heap ~cls:"C" [ ("x", Value.Int 1) ] in
  let hits = Heap.barrier_hits heap in
  (match Heap.set_field heap id "y" (Value.Int 2) with
   | () -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument msg ->
     check Alcotest.string "names the class and the field"
       "Heap.set_field: class C has no field y" msg);
  check Alcotest.(list string) "no field added" [ "x" ] (Heap.field_names heap id);
  check Alcotest.int "no barrier fired" hits (Heap.barrier_hits heap)

let payload_names heap id =
  match Heap.get heap id with Heap.Obj { names; _ } -> names | Heap.Arr _ -> [||]

let payload_vals = function Heap.Obj { vals; _ } -> vals | Heap.Arr a -> a

(* One sorted, duplicate-free layout per object; the instances of one
   class layout share its names, a payload copy shares them too but not
   the value slots. *)
let test_object_layout () =
  let heap = Heap.create () in
  let id =
    Heap.alloc_object heap ~cls:"C"
      [ ("z", Value.Int 1); ("a", Value.Int 2); ("m", Value.Int 3); ("a", Value.Int 4) ]
  in
  check Alcotest.(list string) "sorted, duplicate-free" [ "a"; "m"; "z" ] (Heap.field_names heap id);
  check Alcotest.bool "last binding wins" true (Heap.get_field heap id "a" = Some (Value.Int 4));
  check Alcotest.bool "others kept" true
    (Heap.get_field heap id "z" = Some (Value.Int 1) && Heap.get_field heap id "m" = Some (Value.Int 3));
  let layout = Heap.layout [ "y"; "x"; "y" ] in
  check Alcotest.(array string) "layout sorted, duplicate-free" [| "x"; "y" |] layout;
  let t1 = Heap.alloc_layout heap ~cls:"T" layout and t2 = Heap.alloc_layout heap ~cls:"T" layout in
  check Alcotest.bool "one layout, one names array" true
    (payload_names heap t1 == layout && payload_names heap t2 == layout);
  Heap.set_field heap t1 "x" (Value.Int 5);
  check Alcotest.bool "instances do not share values" true
    (Heap.get_field heap t2 "x" = Some Value.Null);
  let p = Heap.get heap t1 in
  let copy = Heap.copy_payload p in
  check Alcotest.bool "copy shares names" true
    (match copy with Heap.Obj { names; _ } -> names == payload_names heap t1 | Heap.Arr _ -> false);
  check Alcotest.bool "copy does not share vals" true (payload_vals copy != payload_vals p);
  Heap.set_field heap t1 "x" (Value.Int 6);
  check Alcotest.bool "copy detached" true (saved_field copy "x" = Some (Value.Int 5))

let test_copy_payload_detached () =
  let heap = Heap.create () in
  let id = Heap.alloc_object heap ~cls:"C" [ ("x", Value.Int 1) ] in
  let saved = Heap.copy_payload (Heap.get heap id) in
  Heap.set_field heap id "x" (Value.Int 2);
  Heap.restore_payload heap id saved;
  check Alcotest.bool "restored" true (Heap.get_field heap id "x" = Some (Value.Int 1))

let test_successors () =
  let heap = Heap.create () in
  let a = Heap.alloc_object heap ~cls:"C" [] in
  let b =
    Heap.alloc_object heap ~cls:"C"
      [ ("p", Value.Ref a); ("q", Value.Int 3); ("r", Value.Ref a) ]
  in
  let succ = List.sort compare (Heap.successors heap b) in
  check Alcotest.(list int) "object successors" [ a; a ] succ;
  let arr = Heap.alloc_array heap [| Value.Ref b; Value.Null |] in
  check Alcotest.(list int) "array successors" [ b ] (Heap.successors heap arr)

(* A fork point rewinds in place: payloads, the allocation watermark,
   and the shadows open at the fork — reopened if the continuation
   closed them, and holding only the saves they had then. *)
let test_fork_rewind () =
  let heap = Heap.create () in
  let a = Heap.alloc_object heap ~cls:"C" [ ("x", Value.Int 0) ] in
  let b = Heap.alloc_object heap ~cls:"C" [ ("x", Value.Int 0) ] in
  let outer = Shadow.open_ heap in
  Heap.set_field heap a "x" (Value.Int 1);
  let f = Heap.fork heap in
  Heap.set_field heap a "x" (Value.Int 2);
  Heap.set_field heap b "x" (Value.Int 3);
  let fresh = Heap.alloc_object heap ~cls:"C" [ ("x", Value.Int 4) ] in
  Heap.set_field heap fresh "x" (Value.Int 5);
  Heap.free heap b;
  Shadow.close outer;
  Heap.rewind heap f;
  check Alcotest.bool "write undone" true (Heap.get_field heap a "x" = Some (Value.Int 1));
  check Alcotest.bool "free undone" true (Heap.get_field heap b "x" = Some (Value.Int 0));
  check Alcotest.bool "allocation truncated" false (Heap.mem heap fresh);
  check Alcotest.int "live count" 2 (Heap.live_count heap);
  check Alcotest.int "id handed out again" fresh (Heap.alloc_object heap ~cls:"D" []);
  check Alcotest.int "outer keeps its own save only" 1 (Shadow.dirty_count outer);
  check Alcotest.bool "outer's save of a intact" true
    (match Shadow.saved_payload outer a with
     | Some p -> saved_field p "x" = Some (Value.Int 0)
     | None -> false);
  Heap.set_field heap b "x" (Value.Int 6);
  check Alcotest.bool "outer records again" true (Shadow.is_dirty outer b);
  Shadow.close outer

let suite =
  [ Alcotest.test_case "value basics" `Quick test_value_basics;
    Alcotest.test_case "alloc and get" `Quick test_alloc_get;
    Alcotest.test_case "dangling reference" `Quick test_dangling;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "write barrier" `Quick test_write_barrier;
    Alcotest.test_case "payload copy detached" `Quick test_copy_payload_detached;
    Alcotest.test_case "set of a missing field" `Quick test_set_missing_field;
    Alcotest.test_case "object layout" `Quick test_object_layout;
    Alcotest.test_case "successors" `Quick test_successors;
    Alcotest.test_case "fork and rewind" `Quick test_fork_rewind ]
