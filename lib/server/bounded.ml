(* A string-keyed table bounded by FIFO eviction.  Insertion order
   approximates recency well enough for the daemon's tables ("the
   programs this user keeps poking at", "the jobs finished lately"),
   and it keeps eviction O(1) with no per-hit bookkeeping. *)

type 'a t = {
  capacity : int;
  table : (string, 'a) Hashtbl.t;
  order : string Queue.t;  (* insertion order, oldest first *)
}

let create capacity =
  { capacity; table = Hashtbl.create 64; order = Queue.create () }

let find b key = Hashtbl.find_opt b.table key
let length b = Hashtbl.length b.table

let add b key value =
  if Hashtbl.mem b.table key then false
  else begin
    let evicted =
      if Hashtbl.length b.table >= b.capacity then begin
        Hashtbl.remove b.table (Queue.pop b.order);
        true
      end
      else false
    in
    Hashtbl.replace b.table key value;
    Queue.push key b.order;
    evicted
  end

let remove b key =
  if Hashtbl.mem b.table key then begin
    Hashtbl.remove b.table key;
    (* drop the key from the order queue too: rebuild without it *)
    let keep = Queue.create () in
    Queue.iter (fun k -> if not (String.equal k key) then Queue.push k keep) b.order;
    Queue.clear b.order;
    Queue.transfer keep b.order
  end
