(** The resilience scorecard ([failatom.resilience/1]): evidence that
    production masking is working.

    One scorecard summarizes a production run (or a batch of runs):
    how often the armed wrappers fired and rolled back, what the
    rollbacks cost, and how the canary perturbations fared per method.
    Everything except the ["timings"] member is deterministic for a
    fixed program, plan, seed and schedule — CI diffs a scorecard
    against a golden copy with the timings stripped
    ([jq 'del(.timings)']). *)

open Failatom_core

val schema_id : string
(** ["failatom.resilience/1"]. *)

type meth_row = {
  r_id : Method_id.t;
  r_calls : int;  (** wrapped calls entered *)
  r_hits : int;  (** exceptional exits rolled back *)
  r_fired : int;  (** canary perturbations injected *)
  r_validated : int;  (** perturbations whose rollback reproduced the pre-call graph *)
  r_interfered : int;
      (** perturbations left inconclusive because another thread wrote
          during the call — a per-thread rollback rightly preserves
          foreign writes, so the pre-call snapshot is not the reference *)
  r_failed : int;  (** perturbations that did not restore the graph *)
  r_diff : string option;  (** witness path of the first failed validation *)
}

type timing_row = { t_id : Method_id.t; t_wrap_ns : int; t_rollback_ns : int }

type t = {
  program_digest : string;
  rollback : string;
      (** the rollback engine: always ["cow"] when built; files written
          before copy-on-write became the only engine may say
          ["checkpoint"] *)
  seed : int;
  rate : int;  (** per-mille *)
  point : string;  (** "entry" / "exit" *)
  runs : int;
  retries : int;
  rows : meth_row list;  (** sorted by method id *)
  timings : timing_row list;  (** sorted by method id; nondeterministic *)
}

val build :
  program_digest:string -> armed:Armed.t -> ?perturb:Perturb.t ->
  runs:int -> unit -> t
(** Assembles the scorecard of a finished production run set.  Without
    [perturb] the canary columns are zero and the header records seed 0,
    rate 0. *)

val calls : t -> int
val hits : t -> int
val fired : t -> int
val validated : t -> int
val interfered : t -> int
val failed : t -> int

val hit_rate : t -> float
(** [hits / calls]; 0 when no calls. *)

val to_json : t -> string
(** Deterministic except for the ["timings"] member. *)

val of_string : string -> (t, string) result

val save_file : t -> string -> unit
(** Atomic write (temp file + rename): a crash — or a [kill -9] —
    mid-write never leaves a torn or truncated scorecard behind. *)

val load_file : string -> (t, string) result

val pp : Format.formatter -> t -> unit
(** The table rendered by [failatom stats --resilience]. *)
