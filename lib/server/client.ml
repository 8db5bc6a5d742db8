(* Thin client for the failatom daemon: one connection, synchronous
   request/response, streaming watch.  The CLI subcommands
   ([failatom submit|status|watch|cancel|shutdown]), the tests and the
   serve-mixed benchmark workload are all built on this. *)

module Json = Failatom_core.Json

exception Error of string
(* Any failure talking to the daemon: connection refused, protocol
   garbage, or a server-side {"ok":false} reply. *)

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

let read_json conn =
  match input_line conn.ic with
  | exception End_of_file -> fail "server closed the connection"
  | line -> (
    try Json.of_string line
    with Json.Parse_error msg -> fail "bad server reply (%s): %s" msg line)

(* Internal marker for connect failures that a retry can cure: a
   daemon (or cluster shard) that is restarting briefly leaves no
   socket file (ENOENT) or a socket nobody accepts on (ECONNREFUSED),
   and a process dying mid-greeting shows as ECONNRESET or a truncated
   stream.  Protocol-revision mismatches are never retried. *)
exception Transient of string

let close conn =
  close_out_noerr conn.oc;
  close_in_noerr conn.ic

let connect_once ~socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     let msg =
       Printf.sprintf "cannot connect to %s: %s" socket_path
         (Unix.error_message err)
     in
     (match err with
      | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET ->
        raise (Transient msg)
      | _ -> raise (Error msg)));
  (* Each channel owns its own descriptor (see the matching note in
     Server.handle_connection): closing both channels of a shared fd
     double-closes it, racing with fd-number reuse in other threads. *)
  let conn =
    { fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr (Unix.dup fd) }
  in
  match read_json conn with
  | exception e ->
    close conn;
    (match e with
     | Error _ | Sys_error _ ->
       raise (Transient "server closed the connection mid-greeting")
     | e -> raise e)
  | greeting ->
    (match Json.str_member "rpc" greeting with
     | Some v when String.equal v Protocol.version -> conn
     | Some v ->
       close conn;
       fail "server speaks %s, this client %s" v Protocol.version
     | None ->
       close conn;
       fail "not a failatom server (no greeting)")

let connect ?(retries = 0) ~socket_path () =
  let rec attempt n delay =
    match connect_once ~socket_path with
    | conn -> conn
    | exception Transient msg ->
      if n >= retries then raise (Error msg)
      else begin
        (* capped exponential backoff: 50ms, 100ms, ... capped at 1s *)
        Thread.delay delay;
        attempt (n + 1) (Float.min 1.0 (delay *. 2.))
      end
  in
  attempt 0 0.05

let with_conn ?retries ~socket_path f =
  let conn = connect ?retries ~socket_path () in
  Fun.protect ~finally:(fun () -> close conn) (fun () -> f conn)

let send conn req =
  output_string conn.oc (Json.to_string (Protocol.request_to_json req));
  output_char conn.oc '\n';
  flush conn.oc

(* One reply, with the ok/error envelope unwrapped. *)
let reply conn =
  let j = read_json conn in
  match Json.bool_member "ok" j with
  | Some true -> j
  | Some false | None -> (
    match Json.str_member "error" j with
    | Some msg -> fail "server: %s" msg
    | None -> fail "malformed server reply: %s" (Json.to_string j))

let request conn req =
  send conn req;
  reply conn

let submit conn job_request =
  let j = request conn (Protocol.Submit job_request) in
  match (Json.str_member "job" j, Json.bool_member "cached" j) with
  | Some id, Some cached -> (id, cached)
  | _ -> fail "malformed submit reply: %s" (Json.to_string j)

type job_status = {
  state : string;
  cached : bool;
  result : Protocol.job_result option;
  error : string option;
}

let status conn id =
  let j = request conn (Protocol.Status id) in
  match Json.str_member "state" j with
  | None -> fail "malformed status reply: %s" (Json.to_string j)
  | Some state ->
    let result =
      match Json.member "result" j with
      | None -> None
      | Some r -> (
        match Protocol.result_of_json r with
        | Ok r -> Some r
        | Error msg -> fail "malformed result in status reply: %s" msg)
    in
    { state;
      cached = Option.value ~default:false (Json.bool_member "cached" j);
      result;
      error = Json.str_member "error" j }

type outcome =
  | Completed of Protocol.job_result * bool  (* result, served from cache *)
  | Job_failed of string
  | Job_cancelled
  | Job_timed_out

let watch ?(on_event = fun (_ : Protocol.event) -> ()) conn id =
  send conn (Protocol.Watch id);
  let rec loop () =
    let j = reply conn in
    match Protocol.event_of_json j with
    | Error msg -> fail "malformed event: %s" msg
    | Ok ev -> (
      on_event ev;
      match ev with
      | Protocol.Ev_done { result; cached } -> Completed (result, cached)
      | Protocol.Ev_error msg -> Job_failed msg
      | Protocol.Ev_cancelled -> Job_cancelled
      | Protocol.Ev_timeout -> Job_timed_out
      | Protocol.Ev_state _ | Protocol.Ev_tick _ | Protocol.Ev_warning _ -> loop ())
  in
  loop ()

let cancel conn id = ignore (request conn (Protocol.Cancel id))

let log conn id =
  let j = request conn (Protocol.Log id) in
  match Json.str_member "log" j with
  | Some text -> text
  | None -> fail "malformed log reply: %s" (Json.to_string j)

let stats conn =
  let j = request conn Protocol.Stats in
  match Json.str_member "metrics" j with
  | Some metrics -> metrics
  | None -> fail "malformed stats reply: %s" (Json.to_string j)

let shutdown conn = ignore (request conn Protocol.Shutdown)

let submit_wait ?on_event conn job_request =
  let j = request conn (Protocol.Submit job_request) in
  match Json.str_member "job" j with
  | None -> fail "malformed submit reply: %s" (Json.to_string j)
  | Some id -> watch ?on_event conn id
