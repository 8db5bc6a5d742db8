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

val reporter : ?interval_s:float -> Format.formatter -> event -> unit
(** A stateful consumer printing one line per event, throttling [Tick]s
    to at most one per [interval_s] seconds of campaign time. *)
