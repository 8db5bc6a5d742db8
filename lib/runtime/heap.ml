(* The simulated heap.

   Every object and array of the instrumented program lives here, keyed
   by an integer identity.  The heap exposes a write barrier that fires
   *before* any mutation (or removal) of an object's payload.  The
   barrier feeds two consumers:

   - the heap's own stack of active {e shadows} — copy-on-write
     dirty-set/saved-payload records underlying both the
     checkpoints of {!Checkpoint} and the differential
     detection snapshots of the injector (see {!Shadow});
   - an optional external hook ([on_write]), kept for tests and tools.

   The shadow stack is per-heap state, so campaigns running one VM per
   domain need no shared table or lock here. *)

type payload =
  | Obj of { cls : string; fields : (string, Value.t) Hashtbl.t }
  | Arr of Value.t array

(* One copy-on-write shadow: the first time an object is mutated (or
   freed) while the shadow is active, its pre-write payload is saved
   under its identity.  The key set is the shadow's dirty set.  The
   table is allocated on the first write — a shadow is opened per
   wrapped call and most calls never mutate, so opening must not
   allocate.  Lifecycle and queries live in {!Shadow}. *)
type shadow = {
  mutable shadow_saved : (Value.obj_id, payload) Hashtbl.t option;
  mutable shadow_tid : (Value.obj_id, int) Hashtbl.t option;
      (* which MiniLang thread first dirtied each saved object: the
         per-thread COW dirty sets.  Payloads are shared with
         [shadow_saved] (the merged view canonicalization reads), so a
         thread's dirty set is the slice of the merged table it owns;
         the union over threads is exactly the single-shadow dirty set. *)
  mutable shadow_active : bool; (* stops recording once closed *)
}

(* Identities are dense — [next_id] counts up from 1 and is never
   reused — so the store is a flat array indexed by identity, not a
   hash table: every [get] on the interpreter's hot path is one bounds
   check and one array read, and live payloads read back the [Some]
   allocated at [alloc] time (no per-access option allocation). *)
type t = {
  uid : int; (* distinguishes heaps; usable as a hash key *)
  mutable store : payload option array; (* indexed by obj_id; None = freed *)
  mutable next_id : Value.obj_id;
  mutable live : int; (* number of Some entries *)
  mutable allocations : int; (* total number of allocations ever made *)
  mutable barrier_hits : int; (* total write-barrier firings ever made *)
  mutable shadows : shadow list; (* active shadows, innermost first *)
  mutable cur_tid : int;
      (* MiniLang thread currently mutating this heap; kept in step with
         the VM by the scheduler (0, the main thread, when sequential) *)
  mutable on_write : (Value.obj_id -> unit) option;
  mutable write_gen : int; (* bumped once per payload mutation *)
  mutable wstamp : int array;
      (* [write_gen] value of each object's latest mutation, indexed by
         identity like [store]; the incremental-canonicalization memo
         ([Object_graph.Memo]) compares these stamps against the
         generation a cached form was validated at *)
  mutable wcount : int array;
      (* payload mutations per MiniLang thread, indexed by thread id.
         [write_gen] minus a thread's own count dates writes by *other*
         threads, which lets the production rollback and the canary
         validator detect scheduler interference in O(1) *)
}

exception Dangling_reference of Value.obj_id

(* Atomic so that heaps may be created concurrently from several
   domains (the campaign engine runs one detection VM per domain).
   This is the only heap state shared across domains: everything else
   here is per-heap, and MiniLang threads are effect fibers multiplexed
   on their VM's single domain (see Sched), so plain mutable fields
   like [next_id] need no synchronisation. *)
let uid_counter = Atomic.make 0

let create () =
  { uid = 1 + Atomic.fetch_and_add uid_counter 1;
    store = Array.make 256 None;
    next_id = 1;
    live = 0;
    allocations = 0;
    barrier_hits = 0;
    shadows = [];
    cur_tid = 0;
    on_write = None;
    write_gen = 0;
    wstamp = Array.make 256 0;
    wcount = Array.make 8 0 }

let set_cur_tid h tid = h.cur_tid <- tid

let live_count h = h.live
let allocations h = h.allocations
let barrier_hits h = h.barrier_hits
let write_gen h = h.write_gen

let write_stamp h id =
  if id > 0 && id < Array.length h.wstamp then Array.unsafe_get h.wstamp id
  else 0

(* Stamps [id] as mutated at a fresh generation.  Not in [barrier]
   directly so [restore_payload] (which bypasses the barrier) can stamp
   too: rollback must not re-trigger checkpointing, but it *does*
   change payloads, and a stale memoized canonical form would be a
   correctness bug, not a missed optimization. *)
let stamp h id =
  let g = h.write_gen + 1 in
  h.write_gen <- g;
  if id > 0 && id < Array.length h.wstamp then Array.unsafe_set h.wstamp id g;
  let tid = h.cur_tid in
  if tid >= Array.length h.wcount then begin
    let wider = Array.make (2 * (tid + 1)) 0 in
    Array.blit h.wcount 0 wider 0 (Array.length h.wcount);
    h.wcount <- wider
  end;
  if tid >= 0 then h.wcount.(tid) <- h.wcount.(tid) + 1

let writes_by_tid h tid =
  if tid >= 0 && tid < Array.length h.wcount then h.wcount.(tid) else 0

(* The current payload slot of [id], or None when never allocated or
   already freed.  [id < next_id] implies [id] is within the array. *)
let payload_opt h id =
  if id > 0 && id < h.next_id then Array.unsafe_get h.store id else None

let get h id =
  match payload_opt h id with
  | Some p -> p
  | None -> raise (Dangling_reference id)

let mem h id = match payload_opt h id with Some _ -> true | None -> false

let alloc h payload =
  let id = h.next_id in
  if id >= Array.length h.store then begin
    let bigger = Array.make (2 * Array.length h.store) None in
    Array.blit h.store 0 bigger 0 (Array.length h.store);
    h.store <- bigger;
    let wider = Array.make (Array.length bigger) 0 in
    Array.blit h.wstamp 0 wider 0 (Array.length h.wstamp);
    h.wstamp <- wider
  end;
  h.next_id <- id + 1;
  h.allocations <- h.allocations + 1;
  h.live <- h.live + 1;
  h.store.(id) <- Some payload;
  id

let alloc_object h ~cls fields =
  let table = Hashtbl.create (max 4 (List.length fields)) in
  List.iter (fun (name, v) -> Hashtbl.replace table name v) fields;
  alloc h (Obj { cls; fields = table })

let alloc_array h values = alloc h (Arr (Array.copy values))

(* A detached copy of a payload: the field table / element array is
   duplicated but the values (including references) are kept as-is.
   Used by checkpoints and shadows, which capture one payload per
   object. *)
let copy_payload = function
  | Obj { cls; fields } -> Obj { cls; fields = Hashtbl.copy fields }
  | Arr a -> Arr (Array.copy a)

(* Saved payloads are read-only for their whole life — rollback
   re-copies before installing ({!restore_payload}) and every query
   path only traverses them — so when several shadows record the same
   write, one detached copy is made and shared by all of them (the
   stack can be deep: one shadow per wrapped call on the stack). *)
(* Attributes a fresh save to the thread performing the write.  Only
   called when [id] was just added to [sh]'s saved table, so one
   replace, no membership probe. *)
let note_tid h sh id =
  let tbl =
    match sh.shadow_tid with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 16 in
      sh.shadow_tid <- Some tbl;
      tbl
  in
  Hashtbl.replace tbl id h.cur_tid

let shadow_record h sh id copy =
  if sh.shadow_active then begin
    let saved =
      match sh.shadow_saved with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 16 in
        sh.shadow_saved <- Some tbl;
        tbl
    in
    if not (Hashtbl.mem saved id) then begin
      (match !copy with
       | None -> copy := Option.map copy_payload (payload_opt h id)
       | Some _ -> ());
      match !copy with
      | Some p ->
        Hashtbl.replace saved id p;
        note_tid h sh id
      | None -> ()
    end
  end

(* Does this shadow already hold a pre-write copy of [id]?  Saves are
   recorded into every active shadow at once and shadows only leave the
   list when closed, so an object saved in a {e newer} (more recently
   opened) shadow is necessarily saved in every older active one: the
   barrier below walks innermost-first and stops at the first hit,
   which drops the redundant per-shadow membership probes the old
   List.iter paid on the sequential path. *)
let shadow_has sh id =
  match sh.shadow_saved with Some tbl -> Hashtbl.mem tbl id | None -> false

(* Records [id] into the active shadows innermost-first, up to the
   first one that already holds it: the barrier's general case, and
   how {!restore_payload} keeps other shadows' before-states. *)
let rec save_innermost_first h id copy = function
  | [] -> ()
  | sh :: older ->
    if sh.shadow_active && shadow_has sh id then ()
    else begin
      shadow_record h sh id copy;
      save_innermost_first h id copy older
    end

let barrier h id =
  h.barrier_hits <- h.barrier_hits + 1;
  stamp h id;
  (match h.shadows with
   | [] -> ()
   | [ sh ] when sh.shadow_active ->
     (* single active shadow — the common case at shallow call depth *)
     let saved =
       match sh.shadow_saved with
       | Some tbl -> tbl
       | None ->
         let tbl = Hashtbl.create 16 in
         sh.shadow_saved <- Some tbl;
         tbl
     in
     if not (Hashtbl.mem saved id) then (
       match payload_opt h id with
       | Some p ->
         Hashtbl.replace saved id (copy_payload p);
         note_tid h sh id
       | None -> ())
   | shadows -> save_innermost_first h id (ref None) shadows);
  match h.on_write with None -> () | Some f -> f id

(* A free is the terminal mutation: firing the barrier first lets every
   active shadow keep the payload, so a pre-existing object reclaimed
   mid-call can still be reconstructed in the shadow's before-state. *)
let free h id =
  barrier h id;
  match payload_opt h id with
  | Some _ ->
    h.store.(id) <- None;
    h.live <- h.live - 1
  | None -> ()

let class_of h id =
  match get h id with Obj { cls; _ } -> Some cls | Arr _ -> None

let field_names h id =
  match get h id with
  | Obj { fields; _ } ->
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) fields [])
  | Arr _ -> []

let get_field h id name =
  match get h id with
  | Obj { fields; _ } -> Hashtbl.find_opt fields name
  | Arr _ -> None

let set_field h id name v =
  match get h id with
  | Obj { fields; _ } ->
    barrier h id;
    Hashtbl.replace fields name v
  | Arr _ -> invalid_arg "Heap.set_field: array"

let array_length h id =
  match get h id with Arr a -> Some (Array.length a) | Obj _ -> None

let get_elem h id i =
  match get h id with
  | Arr a -> if i >= 0 && i < Array.length a then Some a.(i) else None
  | Obj _ -> None

(* Returns [false] when the index is out of bounds; the VM turns that
   into an [IndexOutOfBoundsException]. *)
let set_elem h id i v =
  match get h id with
  | Arr a ->
    if i >= 0 && i < Array.length a then begin
      barrier h id;
      a.(i) <- v;
      true
    end
    else false
  | Obj _ -> invalid_arg "Heap.set_elem: object"

(* Restores a previously copied payload in place, bypassing the write
   barrier's hook and hit count (rollback must not re-trigger
   checkpointing).  Active shadows that hold no copy of [id] yet still
   save its pre-restore payload: under interleaved threads one thread's
   rollback can rewrite an object that another thread's shadow never
   saw written, and that shadow's before-state must not change under
   it.  The rolling-back shadow itself already holds the object. *)
let restore_payload h id payload =
  if mem h id then begin
    save_innermost_first h id (ref None) h.shadows;
    h.store.(id) <- Some (copy_payload payload);
    stamp h id
  end

(* Direct successors of an object: every reference stored in it. *)
let successors h id =
  match get h id with
  | Obj { fields; _ } ->
    Hashtbl.fold
      (fun _ v acc -> match v with Value.Ref r -> r :: acc | _ -> acc)
      fields []
  | Arr a ->
    Array.fold_left
      (fun acc v -> match v with Value.Ref r -> r :: acc | _ -> acc)
      [] a

let iter_ids h f =
  for id = 1 to h.next_id - 1 do
    match Array.unsafe_get h.store id with Some _ -> f id | None -> ()
  done
