(* Configuration of the detection and masking pipeline.

   This is the programmatic equivalent of the paper's "web interface":
   which generic runtime exceptions to inject, which methods the user
   declares exception-free, which methods must not be wrapped, and the
   masking policy. *)

type wrap_policy =
  | Wrap_pure (* wrap only pure failure non-atomic methods (§4.3) *)
  | Wrap_all_non_atomic (* wrap every failure non-atomic method *)

let wrap_policy_name = function
  | Wrap_pure -> "pure"
  | Wrap_all_non_atomic -> "all"

let wrap_policy_of_name = function
  | "pure" -> Some Wrap_pure
  | "all" -> Some Wrap_all_non_atomic
  | _ -> None

type snapshot_mode =
  | Snapshot_eager
      (* canonicalize the receiver's full object graph afresh at every
         wrapped call entry and exceptional exit (paper Listing 1); the
         test oracle only *)
  | Snapshot_cow
      (* differential snapshots, the detection path: open a
         copy-on-write shadow at entry and walk the entry-time and
         current graphs in lockstep only on the rare exceptional return *)

type prune =
  | Prune_off (* run every injection point, the paper's campaign *)
  | Prune_drop
      (* drop generic injections whose class the static exception-flow
         analysis proves the method cannot raise (changes the point
         numbering: a semantic mode) *)
  | Prune_coalesce
      (* keep every point but run one representative per handler-blind
         class group and synthesize the members' records — marks are
         bitwise-identical to Prune_off *)

let prune_name = function
  | Prune_off -> "off"
  | Prune_drop -> "drop"
  | Prune_coalesce -> "coalesce"

let prune_of_string = function
  | "off" -> Some Prune_off
  | "drop" -> Some Prune_drop
  | "coalesce" -> Some Prune_coalesce
  | _ -> None

type t = {
  runtime_exceptions : string list;
      (* generic runtime exceptions injectable into any method, in
         addition to each method's declared [throws] clause *)
  snapshot_args : bool;
      (* include object-valued arguments in snapshots/checkpoints (the
         paper's C++ flavor does; its Java flavor covers [this] only) *)
  snapshot_mode : snapshot_mode;
      (* how the detection wrapper captures the entry state *)
  wrap_policy : wrap_policy;
  exception_free : Method_id.t list;
      (* methods the user asserts never throw: injections whose site is
         such a method are discarded during re-classification *)
  do_not_wrap : Method_id.t list;
      (* methods excluded from masking even if failure non-atomic *)
  max_runs : int; (* safety bound on the number of injection runs *)
  prune : prune;
      (* static exception-flow pruning of the injection campaign
         (Exnflow): off = paper behavior; drop = skip unraisable
         classes; coalesce = drop + one run per handler-blind group *)
  schedules : string list;
      (* schedule policy specs (Sched.policy_of_string) crossed with the
         injection-point axis for concurrent programs; sequential
         programs always run the ["coop"] schedule only.  Never empty:
         the first entry is the baseline schedule. *)
}

let default =
  { runtime_exceptions = [ "NullPointerException"; "OutOfMemoryError" ];
    snapshot_args = true;
    snapshot_mode = Snapshot_cow;
    wrap_policy = Wrap_pure;
    exception_free = [];
    do_not_wrap = [];
    max_runs = 200_000;
    prune = Prune_off;
    schedules = [ "coop" ] }

(* All exception classes injectable into a method declaring [throws].
   Declared exceptions come first, mirroring the injection-point order
   of the paper's Listing 1. *)
let injectable config ~declared =
  declared @ List.filter (fun e -> not (List.mem e declared)) config.runtime_exceptions

(* Content address of a configuration: md5 hex over a canonical
   rendering of every field that influences detection results.  Two
   configs with equal fingerprints produce identical run records on the
   same program — the contract the server's result cache relies on.
   The leading version tag must change whenever a field is added or its
   rendering changes, invalidating stale cache entries.  The slots of
   the retired snapshot-mode and checkpoint-strategy fields keep the
   legacy token "eager" of their old defaults (neither ever changed a
   run record), so fingerprints recorded then stay valid. *)
let fingerprint (c : t) =
  let policy = wrap_policy_name c.wrap_policy in
  let methods ms =
    String.concat "," (List.sort compare (List.map Method_id.to_string ms))
  in
  let canonical =
    String.concat "|"
      [ "cfg3";
        String.concat "," c.runtime_exceptions;
        string_of_bool c.snapshot_args;
        "eager";
        "eager";
        policy;
        methods c.exception_free;
        "false";
        methods c.do_not_wrap;
        string_of_int c.max_runs;
        prune_name c.prune;
        String.concat "," c.schedules ]
  in
  Digest.to_hex (Digest.string canonical)
