(** Campaign observability: progress events and a throttled line
    reporter. *)

type summary = {
  total_runs : int;  (** runs in the final result, probe included *)
  injections : int;
  executed : int;  (** runs executed by workers in this invocation *)
  reused : int;  (** journaled runs adopted without re-execution *)
  discarded : int;
      (** always 0 — no run is speculative; kept so that the wire
          summary keeps decoding in older clients *)
  synthesized : int;
      (** coalesced records adopted without execution (`--prune
          coalesce`); [executed + reused + synthesized] covers
          [total_runs] *)
  workers : int;
  wall_clock_s : float;
  busy_s : float;  (** CPU seconds consumed over the campaign *)
}

val est_speedup : summary -> float
(** Effective parallelism: CPU time over wall-clock time — the speedup
    over one worker executing the same runs back to back.  Bounded by
    the machine's core count regardless of [workers]. *)

type event =
  | Started of { workers : int; reused : int }
  | Tick of {
      completed : int;  (** runs recorded so far, reused included *)
      needed : int option;  (** total runs, once the frontier is known *)
      injections : int;
      elapsed_s : float;
      rate : float;  (** executed runs per second of wall-clock *)
      eta_s : float option;
    }
  | Warning of string
      (** a recoverable anomaly worth surfacing (e.g. a torn journal
          tail truncated on resume) *)
  | Finished of summary

val null : event -> unit
(** Discards every event (the default consumer). *)

val pp_summary : Format.formatter -> summary -> unit

val reporter : ?interval_s:float -> Format.formatter -> event -> unit
(** A stateful consumer printing one line per event, throttling [Tick]s
    to at most one per [interval_s] seconds of campaign time. *)
