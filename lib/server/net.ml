(* Raw-descriptor Unix-domain-socket plumbing for the NDJSON protocol:
   the daemon ({!Server}) serves through it, and the serve-mixed
   benchmark workload (perfbench/serve_mixed.ml) speaks the wire
   through it so a raw frame can be timed and byte-checked.

   Two properties the callers rely on:

   - {b EINTR is invisible.}  A signal delivered during [select],
     [accept], [read] or [write] used to surface as a protocol error
     that killed the connection; here every primitive restarts the
     interrupted call.  Signals still interrupt promptly where it
     matters — the accept loop re-checks its stop predicate on every
     iteration, interrupted or not.

   - {b Writes are complete or raised.}  [write_line] loops until the
     whole frame (payload + newline) is on the socket, so a short write
     under load never tears an NDJSON frame in half.

   The line reader works on the raw descriptor (no [in_channel]), so a
   connection owns exactly one fd and closes it exactly once — the
   dup'd-descriptor dance the channel-based loop needed to avoid
   double-closes is gone. *)

(* ------------------------------------------------------------------ *)
(* Listening                                                           *)
(* ------------------------------------------------------------------ *)

let listen ~socket_path =
  if Sys.file_exists socket_path then Unix.unlink socket_path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX socket_path);
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* Polls with a short select timeout so [stop] is honoured promptly
   (closing a socket does not reliably wake a blocked [accept]); [tick]
   runs once per iteration — the server uses it to notice a pending
   signal-requested drain.  Each accepted connection is handed to
   [handler] on a fresh thread.  The listening fd is closed on exit. *)
let accept_loop ~stop ?(tick = fun () -> ()) fd handler =
  let rec loop () =
    tick ();
    if not (stop ()) then begin
      (match Unix.select [ fd ] [] [] 0.2 with
       | [ _ ], _, _ -> (
         match Unix.accept fd with
         | conn, _ -> ignore (Thread.create (fun () -> handler conn) ())
         | exception Unix.Unix_error _ ->
           (* EINTR, ECONNABORTED, EMFILE under load: drop this accept,
              keep serving *)
           ())
       | _ -> ()
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Frame I/O                                                           *)
(* ------------------------------------------------------------------ *)

type reader = {
  r_fd : Unix.file_descr;
  r_chunk : Bytes.t;
  mutable r_pending : string;  (* received bytes not yet consumed *)
  mutable r_pos : int;  (* cursor into r_pending *)
}

let reader fd =
  { r_fd = fd; r_chunk = Bytes.create 65536; r_pending = ""; r_pos = 0 }

let rec read_retrying fd chunk =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retrying fd chunk

let read_line r =
  let rec next () =
    match String.index_from_opt r.r_pending r.r_pos '\n' with
    | Some i ->
      let line = String.sub r.r_pending r.r_pos (i - r.r_pos) in
      r.r_pos <- i + 1;
      Some line
    | None ->
      let n = read_retrying r.r_fd r.r_chunk in
      if n = 0 then
        if r.r_pos < String.length r.r_pending then begin
          (* peer closed mid-line: surface the unterminated tail *)
          let line =
            String.sub r.r_pending r.r_pos (String.length r.r_pending - r.r_pos)
          in
          r.r_pending <- "";
          r.r_pos <- 0;
          Some line
        end
        else None
      else begin
        let tail =
          String.sub r.r_pending r.r_pos (String.length r.r_pending - r.r_pos)
        in
        r.r_pending <- tail ^ Bytes.sub_string r.r_chunk 0 n;
        r.r_pos <- 0;
        next ()
      end
  in
  next ()

let write_line fd line =
  let len = String.length line in
  let data = Bytes.create (len + 1) in
  Bytes.blit_string line 0 data 0 len;
  Bytes.set data len '\n';
  let total = len + 1 in
  let rec go off =
    if off < total then
      match Unix.write fd data off (total - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()
