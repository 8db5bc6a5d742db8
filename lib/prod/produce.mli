(** The production-mode driver: plan in, scorecard out.

    Arms a program's wrappers from a persisted detection plan — no
    re-detection — runs the workload one or more times, and reports the
    resilience scorecard.  The plan is validated against the program's
    digest first: a stale plan (program changed since detection) is
    refused rather than armed.

    Arming always uses load-time filters, whatever flavor the detection
    that produced the plan ran under: the plan carries {e which} methods
    to protect, and in production the protection is interposed on the
    compiled program directly. *)

open Failatom_core
open Failatom_runtime
open Failatom_minilang

type perturb_spec = {
  seed : int;
  rate_per_mille : int;
  max_fires : int option;  (** [None] = unlimited *)
  point : Perturb.point;
  fallback_exceptions : string list;
}

type run_report = {
  output : string;  (** the run's program output *)
  escaped : string option;  (** exception class that escaped [main], if any *)
}

type result = {
  scorecard : Scorecard.t;
  runs : run_report list;  (** in execution order *)
}

val run :
  ?config:Config.t -> ?perturb:perturb_spec ->
  ?policy:Sched.policy -> ?times:int -> plan:Plan.t -> Ast.program ->
  (result, string) Stdlib.result
(** Runs [times] (default 1) production executions of the program with
    the plan's targets armed.  [config] (default {!Config.default})
    supplies the root policy; [perturb] enables the canary channel.
    Statistics accumulate across all runs into one scorecard.  [Error]
    when the plan does not match the program's digest. *)
