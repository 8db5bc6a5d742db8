(** Configuration of the detection and masking pipeline.

    The programmatic equivalent of the paper's "web interface" (§4.3):
    which generic runtime exceptions to inject, which methods the user
    declares exception-free, which methods must not be wrapped, and the
    masking policy. *)

type wrap_policy =
  | Wrap_pure
      (** wrap only pure failure non-atomic methods: conditional ones
          become atomic through their callees (paper Definition 3) *)
  | Wrap_all_non_atomic  (** wrap every failure non-atomic method *)

val wrap_policy_name : wrap_policy -> string
(** ["pure"] / ["all"] — the spelling used by {!fingerprint} and the
    serialized detection plan. *)

val wrap_policy_of_name : string -> wrap_policy option

type snapshot_mode =
  | Snapshot_eager
      (** canonicalize the receiver's full object graph at every wrapped
          call entry (paper Listing 1).  The test oracle only: no CLI
          option or wire field selects it. *)
  | Snapshot_cow
      (** differential snapshots, the detection path: open a
          copy-on-write {!Shadow} at entry and reconstruct the
          entry-time canonical form only on the rare exceptional return,
          after intersecting the dirty set with the snapshot's reachable
          ids — detection cost proportional to mutations, not graph
          size *)

type prune =
  | Prune_off  (** run every injection point — the paper's campaign *)
  | Prune_drop
      (** drop generic injections whose class the static exception-flow
          analysis ({!Exnflow}) proves the method cannot raise.  Like
          [infer_exception_free], this changes the injection-point
          numbering: a semantic mode, not a pure optimization. *)
  | Prune_coalesce
      (** handler-state coalescing: every injection point is kept, but
          injected classes that every possibly-active handler is blind
          to share one representative run, whose record is expanded to
          the whole group.  Marks and classification are
          bitwise-identical to [Prune_off]. *)

val prune_name : prune -> string
val prune_of_string : string -> prune option

type t = {
  runtime_exceptions : string list;
      (** generic runtime exceptions injectable into any method, in
          addition to each method's declared [throws] clause *)
  snapshot_args : bool;
      (** include reference arguments in snapshots/checkpoints (the
          paper's C++ flavor does; its Java flavor covers [this] only) *)
  snapshot_mode : snapshot_mode;
      (** how the detection wrapper captures the entry state (default
          [Snapshot_cow]; both modes produce identical run records).
          [Snapshot_eager] is reachable only through this field: it is
          the reference the equivalence tests and the snapshot bench
          compare the production path against. *)
  wrap_policy : wrap_policy;
  exception_free : Method_id.t list;
      (** methods asserted to never throw: injections sited in them are
          discarded during re-classification (paper §4.3) *)
  infer_exception_free : bool;
      (** run the static exception-freedom analysis ({!Purity}) and skip
          injection points in methods that provably cannot raise — the
          automation of the paper's manual annotation, which its §4.3
          lists as future work (default [false], the paper's behavior) *)
  do_not_wrap : Method_id.t list;
      (** methods excluded from masking even if failure non-atomic *)
  max_runs : int;  (** safety bound on the number of injection runs *)
  prune : prune;
      (** static exception-flow pruning of the injection campaign
          (default [Prune_off], the paper's behavior; the CLI defaults
          to [coalesce], which is observationally identical) *)
  schedules : string list;
      (** schedule policy specs ({!Failatom_runtime.Sched.policy_of_string}) crossed with
          the injection-point axis for concurrent programs (default
          [["coop"]]).  Sequential programs always run the ["coop"]
          schedule only, whatever this lists.  Never empty; the first
          entry is the baseline schedule. *)
}

val default : t
(** Generic exceptions [NullPointerException] and [OutOfMemoryError],
    snapshots covering reference arguments, copy-on-write snapshots,
    the wrap-pure policy, and no user annotations. *)

val injectable : t -> declared:string list -> string list
(** All exception classes injectable into a method with the given
    [throws] clause; declared exceptions first, as in Listing 1. *)

val fingerprint : t -> string
(** Content address of the configuration: md5 hex over a canonical,
    versioned rendering of every field that influences detection
    results.  Equal fingerprints guarantee identical run records on the
    same program — the keying contract of the server's result cache.
    [snapshot_mode] is not part of it: its slot always renders the
    legacy token [eager], because both modes yield identical run
    records, and pinning the token keeps fingerprints recorded before
    copy-on-write became the default (plans, cache keys, store entries)
    valid.  The slot of the retired checkpoint-strategy field is pinned
    to [eager] the same way. *)
