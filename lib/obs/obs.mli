(** Low-overhead metrics and span tracing.

    One global registry of named counters, gauges and histograms, all
    backed by [Atomic.t] cells so campaign workers on separate OCaml 5
    domains aggregate without locks on the record path.  Every
    recording operation is a no-op until {!set_enabled}[ true]; the
    canonical metric names are documented in doc/architecture.md.

    Span timings ({!span}, {!timed}) read a monotonic clock (C stub,
    nanoseconds as a tagged int — no allocation) and feed a log2-bucket
    histogram per span name, from which {!snapshot} derives p50/p99.

    The snapshot side is pure data: {!snap} values render to the stable
    [failatom.metrics/1] JSON schema ({!to_json}), parse back
    ({!parse_json}), and print as the per-phase table behind
    [failatom stats] ({!pp_table}). *)

external now_ns : unit -> int = "obs_now_ns" [@@noalloc]
(** Monotonic clock, nanoseconds.  Fits a tagged int for ~146 years of
    uptime. *)

(** {1 Enablement} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Runs [f] with the flag set, restoring the previous state after. *)

(** {1 Metrics} *)

type counter
type gauge
type histogram

type unit_kind =
  | Ns  (** durations in nanoseconds; rendered as human time *)
  | Items  (** plain magnitudes: sizes, depths, counts-per-run *)

val counter : string -> counter
(** The counter registered under [name], created on first use.
    Creation is memoized and domain-safe. *)

val gauge : string -> gauge
val histogram : ?unit_:unit_kind -> string -> histogram

val add : counter -> int -> unit
val incr : counter -> unit
val set_gauge : gauge -> int -> unit

val gauge_to_max : gauge -> int -> unit
(** Raises the gauge to [v] if larger (high-water mark). *)

val observe : histogram -> int -> unit

val timed : histogram -> (unit -> 'a) -> 'a
(** Runs [f], recording its wall-clock duration (ns) into the
    histogram — even when [f] raises. *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span "detect.run" ~attrs f]: {!timed} against the
    [Ns]-histogram registered under the span name; [attrs] are
    informational labels stored with the metric (last span wins). *)

val counter_value : counter -> int
val gauge_value : gauge -> int
val histogram_count : histogram -> int

val reset : unit -> unit
(** Zeroes every registered metric (registrations are kept, so metric
    handles created at module initialization stay valid). *)

(** {1 Snapshots and interchange} *)

type hist_snap = {
  hs_unit : string;  (** "ns" or "items" *)
  hs_count : int;
  hs_sum : int;
  hs_min : int;  (** 0 when empty *)
  hs_max : int;
  hs_p50 : int;  (** bucket-midpoint estimate, clamped to [min, max] *)
  hs_p99 : int;
  hs_attrs : (string * string) list;
}

type snap = {
  s_counters : (string * int) list;  (** sorted by name *)
  s_gauges : (string * int) list;
  s_histograms : (string * hist_snap) list;
}

val snapshot : unit -> snap
(** Captures every registered metric.  Values are read without stopping
    writers, so a snapshot taken mid-campaign is approximate; taken
    after a campaign completes it is exact. *)

val schema_id : string
(** ["failatom.metrics/1"] *)

exception Parse_error of string

val to_json : snap -> string
(** Renders the stable interchange schema: [{"schema":
    "failatom.metrics/1", "counters": {..}, "gauges": {..},
    "histograms": {name: {unit, count, sum, min, max, mean, p50, p99,
    attrs}}}].  Deterministic: entries are sorted by name. *)

val parse_json : string -> snap
(** Inverse of {!to_json} (the derived "mean" field is recomputed, not
    stored).  @raise Parse_error on malformed input or schema
    mismatch. *)

val pp_table : Format.formatter -> snap -> unit
(** The per-phase table rendered by [failatom stats]: metrics grouped
    by name prefix (compile, vm, heap, detect, campaign, then others),
    with count/total/mean/p50/p99/max per histogram. *)
