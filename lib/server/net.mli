(** Unix-domain-socket plumbing for the daemon ({!Server}) and the
    serve-mixed benchmark workload's raw client: listening, the
    select-polled accept loop, and raw-fd NDJSON frame I/O.  Every primitive restarts on [EINTR], so a signal during
    accept or read never surfaces as a protocol error; [write_line]
    loops until the whole frame is written, so short writes never tear
    a frame. *)

val listen : socket_path:string -> Unix.file_descr
(** Binds a listening socket at [socket_path] (replacing a stale file).
    @raise Unix.Unix_error when the socket cannot be bound. *)

val accept_loop :
  stop:(unit -> bool) ->
  ?tick:(unit -> unit) ->
  Unix.file_descr ->
  (Unix.file_descr -> unit) ->
  unit
(** Accepts connections until [stop ()] is true, running [handler] on a
    fresh thread per connection; [tick] runs once per poll iteration
    (~5/s).  Closes the listening fd before returning. *)

type reader
(** A buffered line reader over a raw descriptor. *)

val reader : Unix.file_descr -> reader

val read_line : reader -> string option
(** The next newline-terminated line (newline stripped), an
    unterminated final line, or [None] at EOF.  Retries [EINTR].
    @raise Unix.Unix_error on genuine read errors. *)

val write_line : Unix.file_descr -> string -> unit
(** Writes [line] plus a newline, looping over short writes and
    retrying [EINTR].  @raise Unix.Unix_error on genuine errors. *)

val close_noerr : Unix.file_descr -> unit
