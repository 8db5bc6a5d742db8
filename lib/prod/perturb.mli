(** Canary perturbation: live validation of failure-obliviousness.

    A masked method is supposed to be failure-atomic by construction:
    if it ends exceptionally, the armed wrapper restores the receiver
    graph and the caller can retry.  The canary channel tests that
    promise in production instead of assuming it: on a seeded,
    rate-limited fraction of calls to wrapped methods it injects one of
    the method's declared exceptions, lets the armed wrapper roll the
    call back, compares the receiver graph with its pre-call state, and
    then transparently retries the call.  A perturbation
    whose rollback does not reproduce the pre-call graph is a
    {e validation failure} — the masking is not protecting that method
    — and is reported per method in the resilience scorecard.

    The channel is two filters around the armed wrapper:

    - the {e canary} (outermost; {!arm_canary}) draws the RNG, opens a
      copy-on-write {!Shadow} when a call is selected, validates the
      post-rollback graph against the shadow's before-state with
      {!Object_graph.first_diff}, closes the shadow and retries;
    - the {e igniter} (innermost; {!arm_igniter}) raises the injected
      exception from inside the armed wrapper's protection — at entry,
      or after the body has run and mutated state ({!At_exit}, the
      default, which exercises a real rollback).

    Attach order on each VM must therefore be: igniter first, armed
    wrapper second, canary last (filters attach innermost-first).

    Injection draws are deterministic in the seed and the call sequence;
    under the cooperative schedule a perturbed run is reproducible. *)

open Failatom_core
open Failatom_runtime

type point =
  | At_entry  (** raise before the body runs: rollback is trivial *)
  | At_exit
      (** raise after the body ran and mutated state: the rollback and
          the retry both do real work.  The retry re-executes the body,
          so side effects outside the heap (output) occur twice. *)

val point_name : point -> string
(** ["entry"] / ["exit"]. *)

val point_of_name : string -> point option

type method_stats = private {
  mutable pv_fired : int;
  mutable pv_validated : int;
  mutable pv_interfered : int;
      (** perturbations whose post-rollback graph differed from the
          pre-call snapshot while another thread had written in between:
          a per-thread rollback rightly preserves the other thread's
          work, so the comparison is inconclusive rather than failed *)
  mutable pv_failed : int;
  mutable pv_diff : string option;
      (** a field path witnessing the first failed validation *)
}

type t

val create :
  ?rate_per_mille:int -> ?max_fires:int -> ?point:point ->
  ?fallback_exceptions:string list -> config:Config.t ->
  targets:Method_id.Set.t -> seed:int -> unit -> t
(** A perturbation channel for the given wrapped methods.
    [rate_per_mille] (default 10, i.e. 1% of calls) is the selection
    rate; [max_fires] (default unlimited) caps total injections;
    [fallback_exceptions] are the candidate classes for methods with an
    empty [throws] clause (default none: such methods are never
    perturbed).  [config] supplies the root policy so the validated
    graph is exactly the graph the armed wrapper protects. *)

val point_of : t -> point
val seed_of : t -> int
val rate_of : t -> int

val arm_igniter : t -> Vm.t -> unit
(** Attach the igniter to the target methods — {e before} the armed
    wrapper, so it ends up innermost. *)

val arm_canary : t -> Vm.t -> unit
(** Attach the canary to the target methods — {e after} the armed
    wrapper, so it ends up outermost.  Observability: counts
    [prod.perturb_fired] / [prod.perturb_validated] /
    [prod.perturb_interfered] / [prod.perturb_failed] / [prod.retry];
    validation time feeds [prod.validate_ns]. *)

val fired : t -> int
val validated : t -> int
val interfered : t -> int
val failed : t -> int
val retries : t -> int

val per_method : t -> (Method_id.t * method_stats) list
(** Per-method verdicts of every method that was perturbed at least
    once, sorted by method id. *)
