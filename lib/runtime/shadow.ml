(* Copy-on-write shadows: the differential snapshot engine.

   A shadow opened on a heap records, through the heap's write barrier,
   the pre-write payload of every object mutated (or freed) while the
   shadow is active.  Nothing is traversed or copied up front, so
   opening is O(1) and the cost of a shadow is proportional to the
   number of objects actually touched — not to the size of any object
   graph.  This is the paper's §6.2 copy-on-write suggestion promoted to
   a shared layer:

   - {!Checkpoint}, the rollback engine of every atomicity wrapper, is
     a shadow whose saved payloads are restored on rollback;
   - the detection engine ({!Failatom_core.Injection}) opens one shadow
     per wrapped call instead of canonicalizing the receiver's object
     graph, and reconstructs the entry-time canonical form on the rare
     exceptional return only.

   Shadows nest: each wrapped call gets its own record, the heap keeps
   the active ones innermost-first, and the barrier feeds them all, so a
   detection shadow and a masking checkpoint taken inside the same call
   stack each see a correct before-state.  The stack lives on the heap
   itself ({!Heap.t.shadows}), so there is no cross-domain shared state:
   campaigns running one VM per domain need no lock here. *)

type t = {
  heap : Heap.t;
  s : Heap.shadow;
}

(* Distribution of dirty-set sizes over closed shadows: how much the
   calls covered by cow snapshots / checkpoints actually mutate.
   Recorded at close time only, so the write barrier stays untouched. *)
let h_dirty = Failatom_obs.Obs.histogram ~unit_:Failatom_obs.Obs.Items "heap.shadow.dirty_size"

let open_ heap =
  (* the saved table is created by the barrier on the first write, so
     opening a shadow on a call that never mutates costs two words *)
  let s = { Heap.shadow_saved = None; shadow_tid = None; shadow_active = true } in
  heap.Heap.shadows <- s :: heap.Heap.shadows;
  { heap; s }

let dirty_count t =
  match t.s.Heap.shadow_saved with None -> 0 | Some tbl -> Hashtbl.length tbl

let close t =
  Failatom_obs.Obs.observe h_dirty (dirty_count t);
  t.s.Heap.shadow_active <- false;
  (* wrapped calls close in LIFO order, so the common case is popping
     the innermost shadow; the filter handles out-of-order closes
     (e.g. another thread's checkpoint disposed under ours) *)
  t.heap.Heap.shadows <-
    (match t.heap.Heap.shadows with
     | s :: rest when s == t.s -> rest
     | shadows -> List.filter (fun s -> s != t.s) shadows)

let heap t = t.heap

let is_dirty t id =
  match t.s.Heap.shadow_saved with None -> false | Some tbl -> Hashtbl.mem tbl id

let saved_payload t id =
  match t.s.Heap.shadow_saved with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl id

(* The payload [id] had when the shadow was opened: the saved copy if
   the object has since been written (or freed), its current payload
   otherwise.  Because [Heap.free] fires the barrier, every object that
   existed at open time is readable here for as long as the shadow
   lives. *)
let read_before t id =
  match saved_payload t id with Some p -> p | None -> Heap.get t.heap id

let iter_saved t f =
  match t.s.Heap.shadow_saved with None -> () | Some tbl -> Hashtbl.iter f tbl

(* The per-thread COW dirty sets, sorted by thread id.  Their disjoint
   union is the merged dirty set ([dirty_count]); the QCheck property in
   the test-suite enforces exactly that. *)
let dirty_by_thread t =
  match t.s.Heap.shadow_tid with
  | None -> []
  | Some tbl ->
    let per_tid = Hashtbl.create 4 in
    Hashtbl.iter
      (fun id tid ->
        let ids = try Hashtbl.find per_tid tid with Not_found -> [] in
        Hashtbl.replace per_tid tid (id :: ids))
      tbl;
    Hashtbl.fold (fun tid ids acc -> (tid, List.sort compare ids) :: acc) per_tid []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

let with_shadow heap f =
  let t = open_ heap in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
