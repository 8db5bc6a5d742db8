(* Checkpoint / rollback of object graphs (paper Listing 2), as the
   copy-on-write variant suggested in its §6.2.

   A checkpoint opens a {!Shadow} and records, besides its roots, the
   heap's write generation, the calling thread's own write count and
   the allocation watermark at entry.  Rollback restores saved payloads
   *in place*, so every alias of a checkpointed object observes the
   rolled-back state — the paper's [replace(this, objgraph)].  Objects
   allocated after the checkpoint are never restored (the in-flight
   exception among them); the ones that become garbage are reclaimed by
   {!Gc_heap.collect} (the paper used reference counting plus an
   off-the-shelf collector for cycles). *)

type t = {
  sh : Shadow.t;
  roots : Value.t list;
  closed : bool;  (* the roots reach everything the protected code can *)
  tid : int;
  gen : int;  (* heap write generation at entry *)
  own : int;  (* the thread's own write count at entry *)
  mark : Value.obj_id;  (* allocation watermark at entry *)
}

let take ?(closed = false) heap roots =
  let tid = heap.Heap.cur_tid in
  { sh = Shadow.open_ heap;
    roots;
    closed;
    tid;
    gen = Heap.write_gen heap;
    own = Heap.writes_by_tid heap tid;
    mark = heap.Heap.next_id }

let size t = Shadow.dirty_count t.sh
let dispose t = Shadow.close t.sh

(* When the checkpoint is closed and no other thread wrote during the
   window, every dirty object that existed at entry was reachable from
   the roots, so restoring each saved object below the watermark equals
   restoring the entry graph — in O(dirty), without traversing clean
   objects.  Otherwise the dirty set may hold objects outside that
   graph: another thread's unrelated work (its saves share our shadow),
   or a reference argument the roots leave out.  Restore only what the
   entry-time graph reaches, read through the shadow's before-state. *)
let rollback t =
  if Shadow.dirty_count t.sh > 0 then begin
    let heap = Shadow.heap t.sh in
    let foreign = Heap.write_gen heap - t.gen > Heap.writes_by_tid heap t.tid - t.own in
    if t.closed && not foreign then
      Shadow.iter_saved t.sh (fun id payload ->
          if id < t.mark then Heap.restore_payload heap id payload)
    else begin
      let reachable = Object_graph.reachable_via (Shadow.read_before t.sh) t.roots in
      Shadow.iter_saved t.sh (fun id payload ->
          if Hashtbl.mem reachable id then Heap.restore_payload heap id payload)
    end
  end

let with_checkpoint heap roots f =
  let cp = take heap roots in
  Fun.protect ~finally:(fun () -> dispose cp) (fun () -> f cp)

module Eager = struct
  type t = { heap : Heap.t; saved : (Value.obj_id, Heap.payload) Hashtbl.t }

  let take heap roots =
    let saved = Hashtbl.create 64 in
    Hashtbl.iter
      (fun id () -> Hashtbl.replace saved id (Heap.copy_payload (Heap.get heap id)))
      (Object_graph.reachable_via (Heap.get heap) roots);
    { heap; saved }

  let size t = Hashtbl.length t.saved

  let rollback t =
    Hashtbl.iter (fun id payload -> Heap.restore_payload t.heap id payload) t.saved
end
