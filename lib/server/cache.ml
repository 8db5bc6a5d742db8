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
   Compilation, result rendering, and disk-tier deserialization all
   happen outside it.  Concurrent compiles of the same program are
   still deduplicated — an image miss installs a per-key slot under the
   lock, then compiles while holding only that slot's own mutex, so a
   second submitter of the same digest waits on the slot while
   submitters of other digests sail past.

   An optional {!Store} is the disk tier ([serve --store]): finished
   results and compiled-image metadata spill there, memory misses
   consult it, and a fresh cache prewarms its images from it, so a warm
   cache survives daemon restarts and is shared by every daemon pointed
   at the same directory.  Its two namespaces:

   - [results/<fingerprint>]: the exact rendered NDJSON text of the
     finished result, so a result served from disk is byte-identical
     to the original.

   - [images/<digest>.<flavor>]: [failatom.image-meta/1] metadata
     ({digest, flavor, source}), where [source] is the canonical
     pretty-printing whose md5 {e is} the digest.  Enough to recompile
     the image after a restart; the compiled form itself is
     process-local and cheap relative to detection runs.

   The store swallows its own I/O errors, and junk it returns reads as
   a miss: the disk tier is an accelerator, never a correctness
   dependency.

   All three tables (images, results, the program-digest memo) are
   {!Bounded} FIFOs. *)

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
let m_prewarmed = Obs.counter "cluster.images_prewarmed"

let image_capacity = 128
let result_capacity = 1024
let digest_capacity = 256
let prewarm_limit = 64
let ns_results = "results"
let ns_images = "images"

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

type t = {
  mutex : Mutex.t;  (* guards the three tables below, nothing else *)
  images : slot Bounded.t;
  results : entry Bounded.t;
  digests : string Bounded.t;  (* source key -> program digest *)
  store : Store.t option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let image_key ~program_digest ~flavor =
  program_digest ^ "/" ^ Detect.flavor_wire_name flavor

(* '/' would nest directories in the store; use a flat spelling there. *)
let image_blob_key ~program_digest ~flavor =
  program_digest ^ "." ^ Detect.flavor_wire_name flavor

(* The full job fingerprint.  The protocol revision is part of it so an
   upgraded daemon never serves results serialized under an older
   result shape. *)
let result_key ~program_digest ~mode ~flavor ~config ~run_timeout_s =
  let canonical =
    String.concat "|"
      [ Protocol.version;
        program_digest;
        Protocol.mode_name mode;
        Detect.flavor_wire_name flavor;
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
let digest_find t ~source_key = locked t (fun () -> Bounded.find t.digests source_key)

let digest_learn t ~source_key d =
  locked t (fun () -> ignore (Bounded.add t.digests source_key d))

(* ------------------------------------------------------------------ *)
(* Images                                                              *)
(* ------------------------------------------------------------------ *)

let image_meta_to_json ~program_digest ~flavor (program : Ast.program) =
  Json.Obj
    [ ("schema", Json.Str "failatom.image-meta/1");
      ("digest", Json.Str program_digest);
      ("flavor", Json.Str (Detect.flavor_wire_name flavor));
      ("source", Json.Str (Pretty.program_to_string program)) ]

let images t ~program_digest ~flavor (program : Ast.program) =
  let key = image_key ~program_digest ~flavor in
  let slot, fresh =
    locked t (fun () ->
        match Bounded.find t.images key with
        | Some slot -> (slot, false)
        | None ->
          let slot =
            { s_mutex = Mutex.create ();
              s_cond = Condition.create ();
              s_state = Pending }
          in
          if Bounded.add t.images key slot then Obs.incr m_image_evictions;
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
      Option.iter
        (fun store ->
          Store.store store ~ns:ns_images
            ~key:(image_blob_key ~program_digest ~flavor)
            (Json.to_string (image_meta_to_json ~program_digest ~flavor program)))
        t.store;
      images
    | Failed e ->
      (* Do not leave a poisoned slot behind: the next submitter
         retries the compile. *)
      locked t (fun () -> Bounded.remove t.images key);
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

(* Recompiles one stored image.  False on junk metadata or a program
   that no longer compiles: prewarm is best-effort by definition. *)
let prewarm_one t store key =
  match Store.find store ~ns:ns_images ~key with
  | None -> false
  | Some payload -> (
    try
      let j = Json.of_string payload in
      match
        ( Json.str_member "digest" j,
          Option.bind (Json.str_member "flavor" j) Detect.flavor_of_wire_name,
          Json.str_member "source" j )
      with
      | Some program_digest, Some flavor, Some source ->
        let program = Minilang.parse ~allow_reserved:true source in
        ignore (images t ~program_digest ~flavor program);
        Obs.incr m_prewarmed;
        true
      | _ -> false
    with _ -> false)

(* Recompiles up to [prewarm_limit] stored images, most recently used
   first, so a restarted daemon serves its hot programs warm. *)
let prewarm t store =
  ignore
    (List.fold_left
       (fun n key -> if n < prewarm_limit && prewarm_one t store key then n + 1 else n)
       0 (Store.list store ~ns:ns_images))

let create ?store () =
  let t =
    { mutex = Mutex.create ();
      images = Bounded.create image_capacity;
      results = Bounded.create result_capacity;
      digests = Bounded.create digest_capacity;
      store }
  in
  Option.iter (prewarm t) store;
  t

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

(* A result from the disk tier.  The stored payload is the exact
   rendered text (log included), so the revived entry keeps the
   byte-identity guarantee; its log-less rendering is derived from the
   decoded result.  A blob that does not decode is a miss. *)
let revive store key =
  match Store.find store ~ns:ns_results ~key with
  | None -> None
  | Some payload -> (
    match Protocol.result_of_json (Json.of_string payload) with
    | Ok result -> Some (entry_of_rendered result payload)
    | Error _ | (exception Json.Parse_error _) -> None)

let find_result t key =
  match locked t (fun () -> Bounded.find t.results key) with
  | Some e ->
    Obs.incr m_result_hits;
    Some e
  | None -> (
    (* Memory miss: consult the disk tier outside the lock. *)
    match (match t.store with None -> None | Some store -> revive store key) with
    | None ->
      Obs.incr m_result_misses;
      None
    | Some e ->
      if locked t (fun () -> Bounded.add t.results key e) then
        Obs.incr m_result_evictions;
      Obs.incr m_result_hits;
      Obs.incr m_store_hits;
      Some e)

let store_result t key result =
  let e = entry result in
  if locked t (fun () -> Bounded.add t.results key e) then
    Obs.incr m_result_evictions;
  Option.iter
    (fun store ->
      Store.store store ~ns:ns_results ~key e.e_rendered;
      Obs.incr m_store_spills)
    t.store;
  e

let stats t =
  locked t (fun () -> (Bounded.length t.images, Bounded.length t.results))
