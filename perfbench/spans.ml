type t = { id : int; parent : int; name : string; t0 : int; t1 : int }

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded = ref []

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let with_span ?(on = enabled ()) ?(parent = 0) name f =
  if not on then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = Failatom_obs.Obs.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        record { id; parent; name; t0; t1 = Failatom_obs.Obs.now_ns () })
      (fun () -> f id)
  end

let all () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) l

let duration s = s.t1 - s.t0

let covered ~t0 ~t1 intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a t0 and b = min b t1 in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0, None) sorted
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

let self_ns s ~children =
  duration s
  - covered ~t0:s.t0 ~t1:s.t1
      (List.filter_map
         (fun c -> if c.parent = s.id then Some (c.t0, c.t1) else None)
         children)

let unattributed_ratio ~roots spans =
  let total = List.fold_left (fun acc r -> acc + duration r) 0 roots in
  if total <= 0 then 0.
  else
    let self = List.fold_left (fun acc r -> acc + self_ns r ~children:spans) 0 roots in
    float_of_int self /. float_of_int total

let total_ns name spans =
  List.fold_left (fun acc s -> if s.name = name then acc + duration s else acc) 0 spans

let durations_ms name spans =
  List.filter_map
    (fun s -> if s.name = name then Some (float_of_int (duration s) /. 1e6) else None)
    spans

let to_json_line s =
  Printf.sprintf "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0\":%d,\"t1\":%d}" s.id
    s.parent s.name s.t0 s.t1
