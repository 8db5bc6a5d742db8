(* The daemon's content-addressed caches.

   Two layers, both keyed by content, never by name:

   - The {b image cache} maps (program digest, flavor) to the compiled
     program images — the plain {!Compile.image} plus the
     flavor-specific {!Detect.compiled} (woven for source weaving).
     Compilation and weaving are the per-submission fixed cost; a warm
     hit makes resubmission skip them entirely.

   - The {b result cache} maps a full job fingerprint — program digest
     plus everything that influences the outcome (mode, flavor,
     config fingerprint, run timeout, protocol revision) — to the
     finished {!Protocol.job_result} together with two renderings of
     it, each with its warm done frame: the full result, which carries
     the very {!Run_log} text the original job produced (a ~200KB
     frame for RBTree), and the log-less result, which omits the
     ["log"] member (under 1KB).  A warm hit answers a resubmission in
     O(1) by appending whichever frame its request asked for, without
     re-serializing anything per hit; log and log-less requests share
     one entry, since the flag is not part of the key.

   Keying by [Config.fingerprint] rather than by the request object
   means two requests that spell the same configuration differently
   (field order, defaulted fields) still share an entry, and that a
   future config field automatically splits the key space.

   Locking discipline: the global mutex guards {e table mutation only}.
   Compilation, result rendering, and persistent-tier deserialization
   all happen outside it.  Concurrent compiles of the same program are
   still deduplicated — an image miss installs a per-key slot under the
   lock, then compiles while holding only that slot's own mutex, so a
   second submitter of the same digest waits on the slot while
   submitters of other digests sail past.

   An optional {!persist} hook pair spills finished results and
   compiled-image metadata to a durable tier (the cluster's on-disk
   store) and consults it on memory misses, so a warm cache survives
   daemon restarts and is shared between shard processes.  Persisted
   result payloads are the exact rendered NDJSON text, so a result
   served from the durable tier is byte-identical to the original.

   Both maps are bounded by FIFO eviction — insertion order
   approximates recency well enough for a daemon whose working set is
   "the programs this user keeps poking at", and it keeps eviction O(1)
   with no per-hit bookkeeping. *)

open Failatom_core
open Failatom_minilang
module Obs = Failatom_obs.Obs

let m_image_hits = Obs.counter "server.cache_image_hits"
let m_image_misses = Obs.counter "server.cache_image_misses"
let m_image_evictions = Obs.counter "server.cache_image_evictions"
let m_result_hits = Obs.counter "server.cache_result_hits"
let m_result_misses = Obs.counter "server.cache_result_misses"
let m_result_evictions = Obs.counter "server.cache_result_evictions"
let m_store_hits = Obs.counter "server.cache_store_hits"
let m_store_spills = Obs.counter "server.cache_store_spills"

type images = {
  plain : Compile.image;
  compiled : Detect.compiled;
}

type entry = {
  e_result : Protocol.job_result;
  e_rendered : string;  (* Json.to_string (Protocol.result_to_json e_result) *)
  e_warm_frame : string;  (* done_frame ~cached:true e_rendered, shared by warm hits *)
  e_rendered_nolog : string;  (* the same, without the "log" member *)
  e_warm_frame_nolog : string;  (* done_frame ~cached:true e_rendered_nolog *)
}

type persist = {
  find_blob : ns:string -> key:string -> string option;
  store_blob : ns:string -> key:string -> string -> unit;
}

let ns_results = "results"
let ns_images = "images"

(* A per-key compilation promise: installed in the image table under
   the global lock, filled outside it.  Waiters block on the slot, not
   on the cache. *)
type slot = {
  s_mutex : Mutex.t;
  s_cond : Condition.t;
  mutable s_state : slot_state;
}

and slot_state =
  | Pending
  | Ready of images
  | Failed of exn

type 'a bounded = {
  capacity : int;
  table : (string, 'a) Hashtbl.t;
  order : string Queue.t;  (* insertion order, oldest first *)
}

let bounded capacity =
  { capacity; table = Hashtbl.create 64; order = Queue.create () }

(* Adds under the caller-held lock; reports whether an older entry was
   evicted so the caller can count it outside. *)
let bounded_add b key value =
  if Hashtbl.mem b.table key then false
  else begin
    let evicted =
      if Hashtbl.length b.table >= b.capacity then begin
        let oldest = Queue.pop b.order in
        Hashtbl.remove b.table oldest;
        true
      end
      else false
    in
    Hashtbl.replace b.table key value;
    Queue.push key b.order;
    evicted
  end

let bounded_remove b key =
  if Hashtbl.mem b.table key then begin
    Hashtbl.remove b.table key;
    (* drop the key from the order queue lazily: rebuild without it *)
    let keep = Queue.create () in
    Queue.iter (fun k -> if not (String.equal k key) then Queue.push k keep) b.order;
    Queue.clear b.order;
    Queue.transfer keep b.order
  end

type t = {
  mutex : Mutex.t;  (* guards the three tables below, nothing else *)
  images : slot bounded;
  results : entry bounded;
  digests : (string, string) Hashtbl.t;  (* source key -> program digest *)
  digest_order : string Queue.t;
  digest_capacity : int;
  persist : persist option;
}

let create ?(image_capacity = 128) ?(result_capacity = 1024) ?persist () =
  { mutex = Mutex.create ();
    images = bounded image_capacity;
    results = bounded result_capacity;
    digests = Hashtbl.create 64;
    digest_order = Queue.create ();
    digest_capacity = 256;
    persist }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let image_key ~program_digest ~flavor =
  program_digest ^ "/" ^ Protocol.flavor_wire_name flavor

(* '/' would nest directories in the durable tier; use a flat spelling
   there ([flavor] is the wire name). *)
let image_blob_key ~program_digest ~flavor = program_digest ^ "." ^ flavor

(* The full job fingerprint.  The protocol revision is part of it so an
   upgraded daemon never serves results serialized under an older
   result shape. *)
let result_key ~program_digest ~mode ~flavor ~config ~run_timeout_s =
  let canonical =
    String.concat "|"
      [ Protocol.version;
        program_digest;
        Protocol.mode_name mode;
        Protocol.flavor_wire_name flavor;
        Config.fingerprint config;
        (match run_timeout_s with None -> "none" | Some s -> Printf.sprintf "%.6f" s) ]
  in
  Digest.to_hex (Digest.string canonical)

(* ------------------------------------------------------------------ *)
(* Program-digest memo                                                 *)
(* ------------------------------------------------------------------ *)

(* Computing a program digest requires parsing (it is the md5 of the
   pretty-printed AST), so the warm submit path memoizes
   source-key -> digest: a resubmission of a known program skips the
   parse entirely.  Only successful computes are stored, so a malformed
   source is re-validated (and re-rejected) every time. *)
let digest_find t ~source_key =
  locked t (fun () -> Hashtbl.find_opt t.digests source_key)

let digest_learn t ~source_key d =
  locked t (fun () ->
      if not (Hashtbl.mem t.digests source_key) then begin
        if Hashtbl.length t.digests >= t.digest_capacity then begin
          let oldest = Queue.pop t.digest_order in
          Hashtbl.remove t.digests oldest
        end;
        Hashtbl.replace t.digests source_key d;
        Queue.push source_key t.digest_order
      end)

(* ------------------------------------------------------------------ *)
(* Images                                                              *)
(* ------------------------------------------------------------------ *)

(* Persisted image metadata: enough to recompile the image after a
   restart (the source is the canonical pretty-printing, whose md5 is
   the digest). *)
let image_meta_to_json ~program_digest ~flavor (program : Ast.program) =
  Json.Obj
    [ ("schema", Json.Str "failatom.image-meta/1");
      ("digest", Json.Str program_digest);
      ("flavor", Json.Str (Protocol.flavor_wire_name flavor));
      ("source", Json.Str (Pretty.program_to_string program)) ]

let images t ~program_digest ~flavor (program : Ast.program) =
  let key = image_key ~program_digest ~flavor in
  let slot, fresh =
    locked t (fun () ->
        match Hashtbl.find_opt t.images.table key with
        | Some slot -> (slot, false)
        | None ->
          let slot =
            { s_mutex = Mutex.create ();
              s_cond = Condition.create ();
              s_state = Pending }
          in
          if bounded_add t.images key slot then Obs.incr m_image_evictions;
          (slot, true))
  in
  if fresh then begin
    Obs.incr m_image_misses;
    (* Compile outside the cache mutex: only submitters of this same
       digest wait; everyone else proceeds. *)
    let outcome =
      try
        let plain = Compile.image program in
        let compiled = Detect.compile ~plain flavor program in
        Ready { plain; compiled }
      with e -> Failed e
    in
    Mutex.lock slot.s_mutex;
    slot.s_state <- outcome;
    Condition.broadcast slot.s_cond;
    Mutex.unlock slot.s_mutex;
    match outcome with
    | Ready images ->
      (match t.persist with
       | Some p ->
         let meta = image_meta_to_json ~program_digest ~flavor program in
         (try
            p.store_blob ~ns:ns_images
              ~key:
                (image_blob_key ~program_digest
                   ~flavor:(Protocol.flavor_wire_name flavor))
              (Json.to_string meta)
          with _ -> ())
       | None -> ());
      images
    | Failed e ->
      (* Do not leave a poisoned slot behind: the next submitter
         retries the compile. *)
      locked t (fun () -> bounded_remove t.images key);
      raise e
    | Pending -> assert false
  end
  else begin
    Mutex.lock slot.s_mutex;
    while slot.s_state = Pending do
      Condition.wait slot.s_cond slot.s_mutex
    done;
    let state = slot.s_state in
    Mutex.unlock slot.s_mutex;
    match state with
    | Ready images ->
      Obs.incr m_image_hits;
      images
    | Failed e -> raise e
    | Pending -> assert false
  end

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let render ?log result = Json.to_string (Protocol.result_to_json ?log result)

(* The done frame splices the pre-rendered result text.  Field order
   matches the server's rendering of [Ev_done] exactly, and
   {!Json.to_string} is compositional (no whitespace), so the spliced
   frame is byte-for-byte what full rendering would produce. *)
let done_frame ~cached rendered =
  Printf.sprintf "{\"ok\":true,\"event\":\"done\",\"cached\":%b,\"result\":%s}"
    cached rendered

(* Both warm frames are built once here, outside every lock: warm hits
   append one of these strings to their jobs instead of a fresh copy
   each. *)
let entry_of_rendered result rendered =
  let nolog = render ~log:false result in
  { e_result = result;
    e_rendered = rendered;
    e_warm_frame = done_frame ~cached:true rendered;
    e_rendered_nolog = nolog;
    e_warm_frame_nolog = done_frame ~cached:true nolog }

let entry result = entry_of_rendered result (render result)

let rendered e ~log = if log then e.e_rendered else e.e_rendered_nolog
let warm_frame e ~log = if log then e.e_warm_frame else e.e_warm_frame_nolog

let find_result t key =
  match
    locked t (fun () -> Hashtbl.find_opt t.results.table key)
  with
  | Some e ->
    Obs.incr m_result_hits;
    Some e
  | None -> (
    (* Memory miss: consult the durable tier, deserializing outside the
       lock.  The stored payload is the exact rendered text (log
       included), so the revived entry keeps the byte-identity
       guarantee; its log-less rendering is derived from the decoded
       result. *)
    match t.persist with
    | None ->
      Obs.incr m_result_misses;
      None
    | Some p -> (
      match (try p.find_blob ~ns:ns_results ~key with _ -> None) with
      | None ->
        Obs.incr m_result_misses;
        None
      | Some payload -> (
        match
          try Ok (Json.of_string payload) with Json.Parse_error m -> Error m
        with
        | Error _ ->
          Obs.incr m_result_misses;
          None
        | Ok json -> (
          match Protocol.result_of_json json with
          | Error _ ->
            Obs.incr m_result_misses;
            None
          | Ok result ->
            let e = entry_of_rendered result payload in
            let evicted =
              locked t (fun () -> bounded_add t.results key e)
            in
            if evicted then Obs.incr m_result_evictions;
            Obs.incr m_result_hits;
            Obs.incr m_store_hits;
            Some e))))

let store_result t key result =
  let e = entry result in
  let evicted = locked t (fun () -> bounded_add t.results key e) in
  if evicted then Obs.incr m_result_evictions;
  (match t.persist with
   | Some p ->
     (try
        p.store_blob ~ns:ns_results ~key e.e_rendered;
        Obs.incr m_store_spills
      with _ -> ())
   | None -> ());
  e

let stats t =
  locked t (fun () ->
      (Hashtbl.length t.images.table, Hashtbl.length t.results.table))
