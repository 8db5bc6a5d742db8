(** The failatom daemon: detection as a long-running service over a
    Unix-domain socket, speaking {!Protocol} (NDJSON,
    [failatom.rpc/1]).

    One accept thread feeds per-connection protocol threads; [workers]
    executor threads pop submitted jobs off a bounded FIFO queue and
    run them through {!Failatom_campaign.Campaign.run} (a detect job is
    a one-worker campaign, so its result is bitwise-identical to
    {!Detect.run}).  Compiled images and finished results are memoized
    in the content-addressed {!Cache}: resubmitting a known job is
    answered at submit time, without recompiling or re-running
    anything.

    Admission control: a full queue rejects submissions;
    [job_timeout_s] bounds a job's wall-clock time on an executor;
    shutdown (request or SIGTERM/SIGINT) drains gracefully — queued
    jobs are cancelled, running jobs finish, journals are already
    fsynced per record. *)

type config = {
  socket_path : string;
  workers : int;  (** executor threads (default 2) *)
  max_queue : int;  (** admission bound on queued jobs (default 64) *)
  job_timeout_s : float option;  (** per-job wall-clock deadline *)
  run_timeout_s : float option;
      (** default per-run timeout for jobs that do not set one *)
  jobs_per_job : int;  (** clamp on a campaign request's worker domains *)
}

val default_config : socket_path:string -> config

val max_finished_jobs : int
(** Finished jobs kept for [status], [watch], [cancel] and [log]
    (1024); older ones are evicted first and answer "unknown job".
    Queued and running jobs are never evicted. *)

type t

val start : ?cache:Cache.t -> config -> t
(** Binds the socket (replacing a stale file), spawns the accept and
    executor threads, enables metrics, and returns immediately.
    [?cache] lets the caller supply a pre-built (e.g. store-backed or
    prewarmed) cache; by default a fresh in-memory one is created.
    @raise Unix.Unix_error when the socket cannot be bound. *)

val cache : t -> Cache.t

val shutdown : t -> unit
(** Initiates the graceful drain: stop accepting, cancel queued jobs,
    let running jobs finish.  Returns immediately; {!wait} blocks until
    the drain completes. *)

val wait : t -> unit
(** Joins the server threads, removes the socket file, and restores the
    metrics enablement state. *)

val run : ?cache:Cache.t -> config -> unit
(** [start] + SIGTERM/SIGINT handlers (which trigger {!shutdown}) +
    {!wait}: the body of [failatom serve]. *)
