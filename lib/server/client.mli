(** Thin client for the failatom daemon: one connection, synchronous
    request/response, streaming watch.  Every call raises {!Error} on
    connection failure, protocol garbage, or a server-side error
    reply. *)

exception Error of { msg : string; dropped : bool }
(** [dropped] is true only when the connection closed or was reset
    under a pending reply (EOF, [ECONNRESET], [EPIPE]) — the one failure
    {!with_job} resubmits after.  A refused connect, a malformed reply
    and a server [{"ok":false}] reply all have [dropped = false]. *)

type conn

val connect : ?retries:int -> socket_path:string -> unit -> conn
(** Connects and verifies the server's greeting (protocol revision).
    [retries] (default 0) retries transient connect failures —
    [ECONNREFUSED], [ENOENT], [ECONNRESET], or a connection cut
    mid-greeting — with capped exponential backoff (50ms doubling,
    capped at 1s), so clients tolerate a daemon restarting underneath
    them.  Protocol mismatches are never retried.  Ignores [SIGPIPE]
    process-wide, so a write to a dead daemon raises instead of
    killing the client. *)

val close : conn -> unit

val with_conn : ?retries:int -> socket_path:string -> (conn -> 'a) -> 'a
(** [connect], run, [close] (also on exceptions). *)

val submit : conn -> Protocol.job_request -> string * bool
(** Submits a job; returns (job id, served-from-cache).  A cached job
    is already finished when [submit] returns. *)

type job_status = {
  state : string;  (** queued | running | done | failed | cancelled | timed_out *)
  cached : bool;
  result : Protocol.job_result option;  (** present when done *)
  error : string option;  (** present when failed *)
}

val status : conn -> string -> job_status

type outcome =
  | Completed of Protocol.job_result * bool  (** result, served from cache *)
  | Job_failed of string
  | Job_cancelled
  | Job_timed_out

val watch : ?on_event:(Protocol.event -> unit) -> conn -> string -> outcome
(** Streams the job's events ([on_event] sees every one, terminal
    included) and returns its terminal outcome. *)

val cancel : conn -> string -> unit
(** Requests cancellation; idempotent.  A queued job is cancelled
    immediately, a running one at its next scheduling point. *)

val log : conn -> string -> string
(** The run log of a finished job, as {!Failatom_core.Run_log.save}
    wrote it — also when the job's request set [log = false] and its
    done frame carried none.  [""] for a produce job.  Raises {!Error}
    for an unknown or unfinished job. *)

val stats : conn -> string
(** The server's [failatom.metrics/1] snapshot, as JSON text. *)

val shutdown : conn -> unit
(** Asks the server to drain and exit. *)

val submit_wait :
  ?on_event:(Protocol.event -> unit) -> conn -> Protocol.job_request -> outcome
(** [submit] followed by [watch].  The submit reply carries only the
    job id, its state and whether it was a cache hit, so even a cache
    hit (born finished) takes the watch round trip for its result. *)

val with_job :
  ?retries:int ->
  ?on_submit:(string -> bool -> unit) ->
  ?on_event:(Protocol.event -> unit) ->
  socket_path:string ->
  Protocol.job_request ->
  (conn -> string -> outcome -> 'a) ->
  'a
(** Connects, submits the job ([on_submit] sees its id and cache flag)
    and watches it to its terminal frame, then runs [k conn id outcome]
    on that connection and closes it.  When the connection drops before
    the terminal frame ({!Error} with [dropped]), it reconnects and
    sends the same request again: a daemon restarted on the same store
    answers a finished job from the cache and re-runs an unfinished one.
    [retries] (default 0: never resubmit) is one budget shared by the
    reconnect attempts and the resubmissions.  An [{"ok":false}] reply,
    a malformed reply and a failed, cancelled or timed-out job are never
    resubmitted; nor is anything [k] raises. *)
