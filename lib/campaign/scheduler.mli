(** Claiming injection points for a campaign's walking workers.

    The sequential detection loop stops at the first run that completes
    with no injection — the {e frontier}.  Every worker walks the
    uninjected run and claims the points its walk reaches ({!visit});
    all walks visit the same points in the same order, so no point past
    the frontier is ever claimed and the merged run list is identical
    to what the sequential loop produces.

    The scheduler is plain single-threaded state; {!Campaign} serialises
    access to it with a mutex. *)

open Failatom_core

type stats = {
  executed : int;  (** runs completed by workers in this invocation *)
  reused : int;  (** journaled runs adopted without re-execution *)
  synthesized : int;
      (** records filed by {!adopt} that no worker executed: coalesced
          group members and, under coalescing, the probe *)
}

type t

val create : ?journaled:Marks.run_record list -> unit -> t
(** [journaled] pre-files runs loaded from a resume journal: their
    points are never claimed again. *)

val record : t -> Marks.run_record -> unit
(** Files a record a worker executed. *)

val adopt : t -> Marks.run_record -> unit
(** Files a record that no worker executed — a synthesized coalesce
    member, or the probe under coalescing.  No executed/reused
    accounting, no effect if the threshold is already on file. *)

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
(** The merged result: thresholds [1 .. frontier] in order; journaled
    records past the frontier are dropped.
    @raise Invalid_argument unless {!finished}. *)

val stats : t -> stats

val progress : t -> int * int * int option * int
(** [(recorded, injected, needed, executed)]: runs recorded so far, how
    many of them fired an injection, the total needed once the frontier
    is known, and [executed] of {!stats} — in constant time. *)
