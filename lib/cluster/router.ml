(* The cluster router: the process that owns the public socket and
   spreads jobs over N shard daemons, each a full {!Failatom_server}
   loop on a private socket.

   Forwarding discipline, in order of what matters:

   - {b Affinity first.}  A submission routes to the home shard of its
     program digest ({!Shard_map.shard_of_digest}), so every
     resubmission of a program finds that shard's warm cache.  The
     digest is computed router-side (memoized per source, so the parse
     happens once per program, not per submission); requests whose
     digest cannot be computed (unknown app, unparsable source) go to
     shard 0, which produces the canonical error.

   - {b Steal when lopsided.}  {!Steal.place} diverts a job to the
     idlest shard when the home shard is at least the steal threshold
     deeper in in-flight jobs — or unreachable.  With the persistent
     store underneath, a stolen job can still be answered from the
     shared cache tier.

   - {b Relay bytes, not trees.}  The router parses only client request
     lines (small) and shard submit/cancel replies (small).  Watch
     event frames — including the ~100KB done frame — are relayed as
     raw bytes with a constant-time prefix check for terminality, so
     the router adds no serialization cost to the hot path.  Event
     frames carry no job ids, which is what makes raw relay sound;
     replies that do carry ids are rewritten through the JSON layer,
     whose string round-trip is byte-identical.

   - {b Survive a dying shard.}  Shard-local job ids are namespaced as
     ["s<shard>-<local>"] so the router (and fallback clients) can map
     any id back to its shard.  If a shard dies mid-watch, the router
     emits a warning event, re-submits the remembered raw request line
     to a live shard (the respawned home first — connects retry with
     backoff), and keeps streaming under the same client-visible job
     id.  A job whose result was already spilled to the store is
     re-answered from it without re-running detection.

   Each client connection gets its own lazily-connected pool of shard
   links, so connections never share a shard socket and the protocol's
   strict request/response interleaving is preserved without locks. *)

module Json = Failatom_core.Json
module Protocol = Failatom_server.Protocol
module Net = Failatom_server.Net
module Obs = Failatom_obs.Obs

let m_connections = Obs.counter "router.connections"
let m_routed = Obs.counter "router.jobs_routed"
let m_stolen = Obs.counter "router.jobs_stolen"
let m_redispatched = Obs.counter "router.jobs_redispatched"
let m_shard_failures = Obs.counter "router.shard_failures"

type config = {
  socket_path : string;
  shard_sockets : string array;
  steal_threshold : int;  (* min in-flight imbalance before stealing *)
  connect_retries : int;  (* per shard-connect attempt, with backoff *)
}

let default_config ~socket_path ~shard_sockets =
  { socket_path; shard_sockets; steal_threshold = 4; connect_retries = 4 }

type job_entry = {
  je_id : string;  (* client-visible id *)
  je_submit_line : string;  (* raw request line, for re-dispatch *)
  mutable je_shard : int;
  mutable je_local : string;  (* shard-local job id *)
  mutable je_inflight : bool;  (* counted in load.(je_shard) *)
}

type t = {
  config : config;
  mutex : Mutex.t;
  jobs : (string, job_entry) Hashtbl.t;
  load : int array;  (* in-flight jobs per shard *)
  alive : bool array;  (* last-known reachability *)
  digests : (string, string option) Hashtbl.t;  (* source key -> digest *)
  stop : bool Atomic.t;
  stop_signal : bool Atomic.t;
  mutable threads : Thread.t list;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let shards t = Array.length t.config.shard_sockets

(* ------------------------------------------------------------------ *)
(* Frame classification (raw, constant-time)                           *)
(* ------------------------------------------------------------------ *)

let terminal_prefixes =
  [ "{\"ok\":true,\"event\":\"done\"";
    "{\"ok\":true,\"event\":\"error\"";
    "{\"ok\":true,\"event\":\"cancelled\"";
    "{\"ok\":true,\"event\":\"timeout\"" ]

let is_terminal_frame line =
  List.exists (fun p -> String.starts_with ~prefix:p line) terminal_prefixes

let is_error_reply line = String.starts_with ~prefix:"{\"ok\":false" line

(* ------------------------------------------------------------------ *)
(* Shard links                                                         *)
(* ------------------------------------------------------------------ *)

(* One connection's lazily-opened links to the shards.  Never shared
   between client connections. *)
type link = {
  l_fd : Unix.file_descr;
  l_reader : Net.reader;
}

type pool = link option array

let set_alive t i v = locked t (fun () -> t.alive.(i) <- v)

let drop_link (pool : pool) i =
  (match pool.(i) with Some l -> Net.close_noerr l.l_fd | None -> ());
  pool.(i) <- None

let shard_failed t pool i =
  drop_link pool i;
  set_alive t i false;
  Obs.incr m_shard_failures

let connect_shard t (pool : pool) i =
  match pool.(i) with
  | Some l -> Some l
  | None ->
    let socket_path = t.config.shard_sockets.(i) in
    let rec attempt n delay =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let retry_or_give_up () =
        Net.close_noerr fd;
        if n < t.config.connect_retries then begin
          Thread.delay delay;
          attempt (n + 1) (Float.min 1.0 (delay *. 2.))
        end
        else None
      in
      match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
      | () -> (
        let reader = Net.reader fd in
        match Net.read_line reader with
        | Some _greeting -> Some { l_fd = fd; l_reader = reader }
        | None -> retry_or_give_up ()
        | exception (Unix.Unix_error _ | Sys_error _) -> retry_or_give_up ())
      | exception
          Unix.Unix_error
            ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _) ->
        retry_or_give_up ()
      | exception Unix.Unix_error _ ->
        Net.close_noerr fd;
        None
    in
    (match attempt 0 0.05 with
     | Some l ->
       pool.(i) <- Some l;
       set_alive t i true;
       Some l
     | None ->
       set_alive t i false;
       Obs.incr m_shard_failures;
       None)

(* One request/response round trip on a link; [None] means the link
   died (caller drops it and fails over). *)
let shard_request (l : link) line =
  try
    Net.write_line l.l_fd line;
    Net.read_line l.l_reader
  with Unix.Unix_error _ | Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let digest_of_spec_memo t spec =
  let key =
    match spec with
    | Protocol.App name -> "app:" ^ name
    | Protocol.Inline src -> "src:" ^ Digest.to_hex (Digest.string src)
  in
  match locked t (fun () -> Hashtbl.find_opt t.digests key) with
  | Some d -> d
  | None ->
    let d = Shard_map.digest_of_spec spec in
    locked t (fun () ->
        (* crude bound: a flood of distinct inline sources must not pin
           unbounded memory in the router *)
        if Hashtbl.length t.digests >= 1024 then Hashtbl.reset t.digests;
        Hashtbl.replace t.digests key d);
    d

(* Candidate shards for a dispatch: the policy's pick, then the home
   shard, then everyone else — so total shard failure degrades to
   "try them all" rather than an instant error. *)
let candidates t ~home =
  let n = shards t in
  let decision =
    locked t (fun () ->
        Steal.place ~home ~load:(Array.copy t.load) ~alive:(Array.copy t.alive)
          ~threshold:t.config.steal_threshold)
  in
  let rest =
    List.init n Fun.id
    |> List.filter (fun i -> i <> decision.Steal.target && i <> home)
  in
  let order =
    if decision.Steal.target = home then home :: rest
    else decision.Steal.target :: home :: rest
  in
  (decision, order)

let incr_load t i = locked t (fun () -> t.load.(i) <- t.load.(i) + 1)

let finished_entry t (e : job_entry) =
  locked t (fun () ->
      if e.je_inflight then begin
        e.je_inflight <- false;
        t.load.(e.je_shard) <- max 0 (t.load.(e.je_shard) - 1)
      end)

(* ------------------------------------------------------------------ *)
(* Reply rewriting                                                     *)
(* ------------------------------------------------------------------ *)

(* Our own server renders every job-carrying reply with a fixed head —
   {"ok":true,"job":"<id>","state":"<state>",...} — and ids/states never
   contain escapes.  Splitting on that head lets the router read the id
   and state and splice in the global id without parsing the reply,
   which for the status of a finished job embeds its result (with the
   run log, up to ~200KB). *)
let reply_head = "{\"ok\":true,\"job\":\""
let state_head = "\",\"state\":\""

(* (local id, state if readable, tail starting at the id's closing
   quote) — [None] falls back to the JSON layer. *)
let split_reply_head line =
  if not (String.starts_with ~prefix:reply_head line) then None
  else
    let start = String.length reply_head in
    match String.index_from_opt line start '"' with
    | None -> None
    | Some close ->
      let local = String.sub line start (close - start) in
      let tail = String.sub line close (String.length line - close) in
      let state =
        if String.starts_with ~prefix:state_head tail then
          let s0 = String.length state_head in
          Option.map
            (fun s1 -> String.sub tail s0 (s1 - s0))
            (String.index_from_opt tail s0 '"')
        else None
      in
      Some (local, state, tail)

(* Rewrites the "job" member of a shard reply to the client-visible id:
   by splicing when the head matches, through the JSON layer otherwise
   (round trips are byte-identical, so embedded results survive). *)
let rewrite_job_id line ~id =
  match split_reply_head line with
  | Some (_, _, tail) -> reply_head ^ id ^ tail
  | None -> (
    match Json.of_string line with
    | exception Json.Parse_error _ -> line
    | Json.Obj fields ->
      Json.to_string
        (Json.Obj
           (List.map
              (fun (k, v) ->
                if String.equal k "job" then (k, Json.Str id) else (k, v))
              fields))
    | _ -> line)

(* ------------------------------------------------------------------ *)
(* Submit                                                              *)
(* ------------------------------------------------------------------ *)

(* Sends the raw submit line to the first shard that answers; returns
   the entry (registered under the global id) and the reply to relay.
   [existing] re-dispatches an already-known job in place. *)
let dispatch t pool ~line ~spec ?existing () =
  let home =
    match digest_of_spec_memo t spec with
    | Some d -> Shard_map.shard_of_digest ~shards:(shards t) d
    | None -> 0
  in
  let decision, order = candidates t ~home in
  let rec try_shards = function
    | [] -> Error "no shard available"
    | i :: rest -> (
      match connect_shard t pool i with
      | None -> try_shards rest
      | Some link -> (
        match shard_request link line with
        | None ->
          shard_failed t pool i;
          try_shards rest
        | Some reply when is_error_reply reply ->
          (* the shard spoke: relay its verdict (bad request, queue
             full, draining) rather than shopping around *)
          Ok (None, reply)
        | Some reply -> (
          let head =
            match split_reply_head reply with
            | Some (local, state, tail) -> Some (local, state, Some tail)
            | None -> (
              (* unexpected reply shape: the JSON layer decides *)
              match Json.of_string reply with
              | exception Json.Parse_error _ -> None
              | j ->
                Option.map
                  (fun local -> (local, Json.str_member "state" j, None))
                  (Json.str_member "job" j))
          in
          match head with
          | None -> Ok (None, reply)
          | Some (local, state, tail) ->
              let queued = state <> Some "done" in
              let entry =
                match existing with
                | Some e ->
                  locked t (fun () ->
                      e.je_shard <- i;
                      e.je_local <- local;
                      e.je_inflight <- false);
                  e
                | None ->
                  let id = Shard_map.global_job_id ~shard:i local in
                  let e =
                    { je_id = id;
                      je_submit_line = line;
                      je_shard = i;
                      je_local = local;
                      je_inflight = false }
                  in
                  locked t (fun () -> Hashtbl.replace t.jobs id e);
                  e
              in
              if queued then begin
                entry.je_inflight <- true;
                incr_load t i
              end;
              Obs.incr m_routed;
              if i <> home || decision.Steal.stolen then Obs.incr m_stolen;
              let rewritten =
                match tail with
                | Some tail -> reply_head ^ entry.je_id ^ tail
                | None -> rewrite_job_id reply ~id:entry.je_id
              in
              Ok (Some entry, rewritten))))
  in
  try_shards order

let handle_submit t pool client_fd ~line ~spec =
  match dispatch t pool ~line ~spec () with
  | Error msg -> Net.write_line client_fd (Json.to_string (Protocol.error msg))
  | Ok (_, reply) -> Net.write_line client_fd reply

(* ------------------------------------------------------------------ *)
(* Job resolution for status/watch/cancel                              *)
(* ------------------------------------------------------------------ *)

(* An id the router routed is in the table; an id it has never seen
   (router restarted, or the client got it straight from a shard) still
   resolves through its ["s<i>-"] prefix. *)
let resolve t id =
  match locked t (fun () -> Hashtbl.find_opt t.jobs id) with
  | Some e -> Some (`Entry e)
  | None -> (
    match Shard_map.parse_job_id id with
    | Some (shard, local) when shard < shards t -> Some (`Direct (shard, local))
    | _ -> None)

let forward_simple t pool client_fd ~id ~make_request =
  match resolve t id with
  | None ->
    Net.write_line client_fd
      (Json.to_string (Protocol.error ("unknown job " ^ id)))
  | Some target -> (
    let shard, local =
      match target with
      | `Entry e -> (e.je_shard, e.je_local)
      | `Direct (shard, local) -> (shard, local)
    in
    let reply =
      match connect_shard t pool shard with
      | None -> None
      | Some link -> (
        match shard_request link (make_request local) with
        | None ->
          shard_failed t pool shard;
          None
        | Some r -> Some r)
    in
    match reply with
    | None ->
      Net.write_line client_fd
        (Json.to_string
           (Protocol.error (Printf.sprintf "shard %d unavailable" shard)))
    | Some reply ->
      (* observe terminality so the load accounting converges even for
         jobs nobody watches *)
      (match target with
       | `Direct _ -> ()
       | `Entry e -> (
         let state =
           match split_reply_head reply with
           | Some (_, state, _) -> state
           | None -> (
             match Json.of_string reply with
             | exception Json.Parse_error _ -> None
             | j -> Json.str_member "state" j)
         in
         match state with
         | Some ("done" | "failed" | "cancelled" | "timed_out") ->
           finished_entry t e
         | _ -> ()));
      Net.write_line client_fd (rewrite_job_id reply ~id))

let status_line local = Json.to_string (Protocol.request_to_json (Protocol.Status local))
let cancel_line local = Json.to_string (Protocol.request_to_json (Protocol.Cancel local))
let watch_line local = Json.to_string (Protocol.request_to_json (Protocol.Watch local))
let log_line local = Json.to_string (Protocol.request_to_json (Protocol.Log local))

(* ------------------------------------------------------------------ *)
(* Watch (streaming relay + re-dispatch)                               *)
(* ------------------------------------------------------------------ *)

let warning_frame msg =
  Json.to_string
    (Json.Obj
       [ ("ok", Json.Bool true);
         ("event", Json.Str "warning");
         ("message", Json.Str msg) ])

let error_frame msg =
  Json.to_string
    (Json.Obj
       [ ("ok", Json.Bool true);
         ("event", Json.Str "error");
         ("message", Json.Str msg) ])

(* Streams one shard's watch; [Ok ()] when a terminal frame was
   relayed, [Error ()] when the link died mid-stream. *)
let stream_watch t pool client_fd (e : job_entry) =
  match connect_shard t pool e.je_shard with
  | None -> Error ()
  | Some link -> (
    try
      Net.write_line link.l_fd (watch_line e.je_local);
      let rec relay () =
        match Net.read_line link.l_reader with
        | None ->
          shard_failed t pool e.je_shard;
          Error ()
        | Some line ->
          if is_error_reply line then begin
            (* the shard no longer knows the job: it respawned and lost
               its state — treat as a dead-shard redispatch *)
            drop_link pool e.je_shard;
            Error ()
          end
          else begin
            Net.write_line client_fd line;
            if is_terminal_frame line then begin
              finished_entry t e;
              Ok ()
            end
            else relay ()
          end
      in
      relay ()
    with Unix.Unix_error _ | Sys_error _ ->
      shard_failed t pool e.je_shard;
      Error ())

let max_redispatch = 3

let handle_watch t pool client_fd ~id =
  match resolve t id with
  | None ->
    Net.write_line client_fd
      (Json.to_string (Protocol.error ("unknown job " ^ id)))
  | Some (`Direct (shard, local)) -> (
    (* not our job: relay verbatim, no re-dispatch possible *)
    match connect_shard t pool shard with
    | None ->
      Net.write_line client_fd
        (Json.to_string
           (Protocol.error (Printf.sprintf "shard %d unavailable" shard)))
    | Some link ->
      (try
         Net.write_line link.l_fd (watch_line local);
         let rec relay () =
           match Net.read_line link.l_reader with
           | None -> drop_link pool shard
           | Some line ->
             Net.write_line client_fd line;
             if is_error_reply line || is_terminal_frame line then ()
             else relay ()
         in
         relay ()
       with Unix.Unix_error _ | Sys_error _ -> shard_failed t pool shard))
  | Some (`Entry e) ->
    let rec attempt n =
      match stream_watch t pool client_fd e with
      | Ok () -> ()
      | Error () ->
        finished_entry t e;
        if n >= max_redispatch then
          Net.write_line client_fd
            (error_frame
               (Printf.sprintf "job %s lost after %d dispatch attempts" id n))
        else begin
          Obs.incr m_redispatched;
          Net.write_line client_fd
            (warning_frame
               (Printf.sprintf "shard %d unavailable; re-dispatching job %s"
                  e.je_shard id));
          (* re-submit the remembered request under the same client id;
             a result already spilled to the store answers instantly *)
          match Json.of_string e.je_submit_line with
          | exception Json.Parse_error _ ->
            Net.write_line client_fd (error_frame ("cannot re-dispatch job " ^ id))
          | j -> (
            match Protocol.request_of_json j with
            | Ok (Protocol.Submit req) -> (
              match
                dispatch t pool ~line:e.je_submit_line ~spec:req.Protocol.program
                  ~existing:e ()
              with
              | Error msg -> Net.write_line client_fd (error_frame msg)
              | Ok _ -> attempt (n + 1))
            | Ok _ | Error _ ->
              Net.write_line client_fd (error_frame ("cannot re-dispatch job " ^ id)))
        end
    in
    attempt 0

(* ------------------------------------------------------------------ *)
(* Stats / shutdown                                                    *)
(* ------------------------------------------------------------------ *)

let stats_line = Json.to_string (Protocol.request_to_json Protocol.Stats)
let shutdown_line = Json.to_string (Protocol.request_to_json Protocol.Shutdown)

let handle_stats t pool client_fd =
  let per_shard =
    List.init (shards t) (fun i ->
        match connect_shard t pool i with
        | None -> None
        | Some link -> (
          match shard_request link stats_line with
          | None ->
            shard_failed t pool i;
            None
          | Some reply -> (
            match Json.of_string reply with
            | exception Json.Parse_error _ -> None
            | j ->
              let snap =
                match Json.str_member "metrics" j with
                | None -> None
                | Some text -> (
                  try Some (Obs.parse_json text) with Obs.Parse_error _ -> None)
              in
              Some
                ( snap,
                  Option.value ~default:0 (Json.int_member "cached_images" j),
                  Option.value ~default:0 (Json.int_member "cached_results" j) ))))
  in
  let reachable = List.filter_map Fun.id per_shard in
  let snaps = List.filter_map (fun (s, _, _) -> s) reachable in
  let merged = Obs.merge (Obs.snapshot () :: snaps) in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 reachable in
  Net.write_line client_fd
    (Json.to_string
       (Protocol.ok
          [ ("metrics", Json.Str (Obs.to_json merged));
            ("cached_images", Json.Int (sum (fun (_, i, _) -> i)));
            ("cached_results", Json.Int (sum (fun (_, _, r) -> r)));
            ("shards", Json.Int (shards t));
            ("shards_reachable", Json.Int (List.length reachable)) ]))

let broadcast_shutdown t pool =
  for i = 0 to shards t - 1 do
    match connect_shard t pool i with
    | None -> ()
    | Some link -> ignore (shard_request link shutdown_line)
  done

(* ------------------------------------------------------------------ *)
(* Connection loop / lifecycle                                         *)
(* ------------------------------------------------------------------ *)

let handle_connection t fd =
  Obs.incr m_connections;
  let pool : pool = Array.make (shards t) None in
  let send j = Net.write_line fd (Json.to_string j) in
  (try
     send Protocol.greeting;
     let reader = Net.reader fd in
     let rec loop () =
       match Net.read_line reader with
       | None -> ()
       | Some line ->
         (match
            try Ok (Json.of_string line)
            with Json.Parse_error msg -> Error ("bad JSON: " ^ msg)
          with
          | Error msg -> send (Protocol.error msg)
          | Ok j -> (
            match Protocol.request_of_json j with
            | Error msg -> send (Protocol.error msg)
            | Ok (Protocol.Submit req) ->
              handle_submit t pool fd ~line ~spec:req.Protocol.program
            | Ok (Protocol.Status id) ->
              forward_simple t pool fd ~id ~make_request:status_line
            | Ok (Protocol.Cancel id) ->
              forward_simple t pool fd ~id ~make_request:cancel_line
            | Ok (Protocol.Log id) ->
              forward_simple t pool fd ~id ~make_request:log_line
            | Ok (Protocol.Watch id) -> handle_watch t pool fd ~id
            | Ok Protocol.Stats -> handle_stats t pool fd
            | Ok Protocol.Shutdown ->
              send (Protocol.ok []);
              broadcast_shutdown t pool;
              Atomic.set t.stop true));
         loop ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  Array.iteri (fun i _ -> drop_link pool i) pool;
  Net.close_noerr fd

let start config =
  Obs.set_enabled true;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let n = Array.length config.shard_sockets in
  let fd = Net.listen ~socket_path:config.socket_path in
  let t =
    { config;
      mutex = Mutex.create ();
      jobs = Hashtbl.create 256;
      load = Array.make n 0;
      alive = Array.make n true;
      digests = Hashtbl.create 64;
      stop = Atomic.make false;
      stop_signal = Atomic.make false;
      threads = [] }
  in
  let accept_thread =
    Thread.create
      (fun () ->
        Net.accept_loop
          ~stop:(fun () -> Atomic.get t.stop)
          ~tick:(fun () ->
            if Atomic.get t.stop_signal then Atomic.set t.stop true)
          fd (handle_connection t))
      ()
  in
  t.threads <- [ accept_thread ];
  t

let shutdown t = Atomic.set t.stop true
let stopped t = Atomic.get t.stop
let request_stop t = Atomic.set t.stop_signal true

let wait t =
  List.iter Thread.join t.threads;
  (try Unix.unlink t.config.socket_path with Unix.Unix_error _ | Sys_error _ -> ())

let loads t = locked t (fun () -> Array.copy t.load)
