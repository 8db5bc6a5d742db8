(* The daemon's persistent content-addressed blob store: the disk tier
   behind the in-memory {!Cache} of [serve --store].

   Layout: one directory per namespace under the store root —
   [results/] holds rendered job results, [images/] compiled-image
   metadata — and one file per blob, named by its content-addressed
   key (a hex digest, possibly suffixed with a flavor name).  The
   store never interprets payloads; byte-identity is the contract.

   Multi-process by construction: daemons (a daemon and its restarted
   successor, which may overlap during a restart) open the same
   directory, and
   the filesystem is the only shared state — there is no in-memory
   index to go stale.  The invariants that make that safe:

   - {b Writes are atomic.}  A blob is written to a [*.tmp.<pid>.<n>]
     sibling, fsynced, and renamed into place.  Readers either see the
     whole blob or none of it; a crash can only leave tmp droppings,
     which [open_] sweeps.

   - {b Reads keep working through eviction.}  A reader that opened a
     file keeps a valid descriptor even if a sibling evicts (unlinks)
     it concurrently.

   - {b LRU is mtime.}  A hit touches the file's mtime; eviction scans
     the namespaces and unlinks oldest-first until total bytes fit
     under the bound.  Scanning the directory on each over-budget store
     keeps the accounting correct no matter how many processes write.

   Store failures are never fatal to the caller — the durable tier is
   an accelerator, and a cache that cannot spill still serves. *)

module Obs = Failatom_obs.Obs

(* The [cluster.] prefix (here and on {!Cache}'s
   [cluster.images_prewarmed]) predates the single daemon owning the
   store; the names stay because [failatom stats]'s key set and the CI
   smoke's [awk] checks read them. *)
let m_hits = Obs.counter "cluster.store_hits"
let m_misses = Obs.counter "cluster.store_misses"
let m_spills = Obs.counter "cluster.store_spills"
let m_evictions = Obs.counter "cluster.store_evictions"
let g_bytes = Obs.gauge "cluster.store_bytes"

type t = {
  dir : string;
  max_bytes : int;
  mutex : Mutex.t;  (* serializes eviction scans within this process *)
  seq : int Atomic.t;  (* uniquifies tmp names within this process *)
}

let namespaces = [ "results"; "images" ]  (* the directories under the root *)

let mkdir_p dir =
  let rec make d =
    if not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

(* A key names a file; reject anything that could escape the namespace
   directory.  Legitimate keys are hex digests plus '.', '-', '_'. *)
let key_ok key =
  String.length key > 0
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> true
         | _ -> false)
       key
  && (not (String.equal key "."))
  && not (String.equal key "..")

let path t ~ns ~key = Filename.concat (Filename.concat t.dir ns) key

let is_tmp name =
  (* "<key>.tmp.<pid>.<n>" *)
  let rec find i =
    if i + 5 > String.length name then false
    else if String.sub name i 5 = ".tmp." then true
    else find (i + 1)
  in
  find 0

(* Every (path, size, mtime) in the store, across namespaces. *)
let entries t =
  List.concat_map
    (fun ns ->
      let d = Filename.concat t.dir ns in
      Array.to_list (try Sys.readdir d with Sys_error _ -> [||])
      |> List.filter_map (fun name ->
             let p = Filename.concat d name in
             match Unix.stat p with
             | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
               Some (p, st_size, st_mtime)
             | _ -> None
             | exception Unix.Unix_error _ -> None))
    namespaces

let total_bytes entries = List.fold_left (fun acc (_, s, _) -> acc + s) 0 entries

let open_ ~dir ~max_bytes =
  mkdir_p dir;
  List.iter (fun ns -> mkdir_p (Filename.concat dir ns)) namespaces;
  (* sweep tmp droppings from a previous crash *)
  List.iter
    (fun ns ->
      let d = Filename.concat dir ns in
      Array.iter
        (fun name ->
          if is_tmp name then
            try Unix.unlink (Filename.concat d name)
            with Unix.Unix_error _ -> ())
        (try Sys.readdir d with Sys_error _ -> [||]))
    namespaces;
  let t = { dir; max_bytes; mutex = Mutex.create (); seq = Atomic.make 0 } in
  Obs.set_gauge g_bytes (total_bytes (entries t));
  t

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Some (really_input_string ic (in_channel_length ic))
        with End_of_file | Sys_error _ -> None)

let find t ~ns ~key =
  if not (key_ok key) then None
  else
    let p = path t ~ns ~key in
    match read_file p with
    | None ->
      Obs.incr m_misses;
      None
    | Some payload ->
      (* LRU touch: a hit is a use *)
      (try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ());
      Obs.incr m_hits;
      Some payload

(* Oldest-mtime-first until under budget.  Rescans rather than trusting
   any in-memory count, so eviction stays correct when several daemon
   processes write the same store. *)
let evict_if_needed t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let es = entries t in
      let total = ref (total_bytes es) in
      Obs.set_gauge g_bytes !total;
      if !total > t.max_bytes then begin
        let oldest_first =
          List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) es
        in
        List.iter
          (fun (p, size, _) ->
            if !total > t.max_bytes then begin
              (try
                 Unix.unlink p;
                 total := !total - size;
                 Obs.incr m_evictions
               with Unix.Unix_error _ -> () (* a sibling got there first *))
            end)
          oldest_first;
        Obs.set_gauge g_bytes !total
      end)

let store t ~ns ~key payload =
  if key_ok key then begin
    try
      let final = path t ~ns ~key in
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
          (Atomic.fetch_and_add t.seq 1)
      in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let data = Bytes.of_string payload in
          let len = Bytes.length data in
          let rec write off =
            if off < len then
              match Unix.write fd data off (len - off) with
              | n -> write (off + n)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
          in
          write 0;
          Unix.fsync fd);
      Unix.rename tmp final;
      Obs.incr m_spills;
      evict_if_needed t
    with Unix.Unix_error _ | Sys_error _ -> ()
  end

let list t ~ns =
  let d = Filename.concat t.dir ns in
  Array.to_list (try Sys.readdir d with Sys_error _ -> [||])
  |> List.filter (fun name -> not (is_tmp name))
  |> List.filter_map (fun name ->
         match Unix.stat (Filename.concat d name) with
         | { Unix.st_mtime; _ } -> Some (name, st_mtime)
         | exception Unix.Unix_error _ -> None)
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.map fst

let stats t =
  let es = entries t in
  (List.length es, total_bytes es)
