(** Claiming injection thresholds for a campaign's workers.

    The sequential detection loop stops at the first run that completes
    with no injection — the {e frontier}.  Walking workers claim the
    points their walks reach ({!visit}); no point past the frontier is
    ever claimed.  Fresh-VM workers cannot know the frontier upfront,
    so {!claim} speculates: it hands out thresholds up to a doubling
    {e horizon} and discards completed runs that land past the frontier
    once it is found.  Runs are deterministic and independent, so the
    merged, frontier-truncated run list is identical to what the
    sequential loop produces.

    The scheduler is plain single-threaded state; {!Campaign} serialises
    access to it with a mutex. *)

open Failatom_core

type claim =
  | Claimed of int  (** execute this threshold *)
  | Claimed_group of Prune.group
      (** coalesce plan: execute the group's representative threshold,
          then synthesize (or, on a timeout, execute) the members *)
  | Wait  (** nothing useful below the horizon; block until a record *)
  | Done  (** every needed threshold is claimed or complete *)
  | Exhausted  (** [max_runs] runs completed and none was injection-free *)

type stats = {
  executed : int;  (** runs completed by workers in this invocation *)
  reused : int;  (** journaled runs adopted without re-execution *)
  discarded : int;  (** speculative runs recorded past the frontier *)
  synthesized : int;
      (** records filed by {!adopt} that no worker executed: coalesced
          group members and the trace run's probe *)
}

type t

val create :
  ?journaled:Marks.run_record list -> ?plan:Prune.plan -> max_runs:int ->
  jobs:int -> unit -> t
(** [journaled] pre-files runs loaded from a resume journal: their
    thresholds are never handed out again.  With [plan] (the coalesce
    pruning plan) the frontier is known upfront and {!claim} hands out
    whole blindness groups in the plan's seeded order instead of
    speculating on individual thresholds; a group is skipped only when
    {e every} member is already on file, so a resumed campaign with a
    partially-synthesized group re-executes its representative. *)

val claim : t -> claim
val record : t -> Marks.run_record -> [ `Kept | `Speculative ]

val adopt : t -> Marks.run_record -> unit
(** Files a record that no worker executed — a synthesized coalesce
    member or the retagged probe of the trace run.  No
    executed/reused/discarded accounting, no effect if the threshold is
    already on file. *)

val visit : t -> Prune.group -> Detect.visit
(** A walk reached the group's head (a one-member group unless
    coalescing).  [Fork] claims it: its head, and every member not yet
    on file.  [Pass] when the head is claimed by another walk or every
    member is on file (a coalesced group is skipped only when every
    member is); [Stop] once the frontier is known and every point up to
    it is claimed or on file. *)

val filed : t -> int -> bool
(** The threshold's record is on file. *)

val frontier : t -> int option
(** The least recorded threshold whose run did not inject, if any. *)

val finished : t -> bool
(** Every threshold up to the frontier has been recorded. *)

val runs : t -> Marks.run_record list
(** The merged result: thresholds [1 .. frontier] in order, speculative
    over-run discarded.  @raise Invalid_argument unless {!finished}. *)

val stats : t -> stats

val progress : t -> int * int * int option * int
(** [(recorded, injected, needed, executed)]: runs recorded so far, how
    many of them fired an injection, the total needed once the frontier
    is known, and [executed] of {!stats} — in constant time. *)
