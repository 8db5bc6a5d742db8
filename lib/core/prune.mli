(** Injection-campaign pruning plans.

    Built from a threshold-0 {e trace run} (which visits every
    injection point without firing) and an {!Exnflow} analysis: the
    campaign's total point count and frontier are known up front, the
    points of each dynamic entry are partitioned into handler-blindness
    groups sharing one representative run, and the groups are ordered
    first-visit-first so time-bounded campaigns reach fresh methods
    sooner.  {!Detect} and {!Failatom_campaign.Campaign} both consume
    plans under [--prune coalesce]. *)

type group = {
  site : Method_id.t;
  members : (int * string) list;
      (** (threshold, injected class) per point of the group, in
          injectable order; the head is the representative *)
  first_visit : bool;
      (** this entry is the first dynamic visit of [site] *)
}

type plan = {
  total_points : int;  (** P: injection points the campaign reaches *)
  frontier : int;  (** P + 1, the threshold of the no-injection probe *)
  groups : group list;  (** in dynamic (threshold) order *)
  order : group list;  (** seeded execution order for campaigns *)
}

val build :
  Exnflow.t -> entries:(Method_id.t * string list) list -> plan
(** [build flow ~entries] consumes {!Injection.trace_entries} of a
    trace run.  Concatenating every group's [members] thresholds
    yields exactly [1 .. total_points]. *)

val partition_pairs :
  Exnflow.t -> Method_id.t -> (int * string) list -> (int * string) list list
(** [partition_pairs flow site points] splits the (threshold, injected
    class) points of one dynamic entry of [site] into handler-blindness
    groups, in first-occurrence order, each group in point order.
    {!build} applies it to every entry of a trace; the prefix-sharing
    walk applies it to each entry as it is reached. *)

val rep : group -> int * string
(** The representative point (lowest threshold) of a group. *)

val group_count : plan -> int

val coalesced_away : plan -> int
(** Points whose run is synthesized instead of executed:
    [total_points - group_count]. *)

val synthesize :
  group ->
  rep_record:Marks.run_record ->
  injected_escaped:bool ->
  Marks.run_record list
(** Records of the group's non-representative members, rewritten from
    the representative's record: the armed threshold and injected
    class are the member's own, and the escaped class follows the
    injected class exactly when the representative's escaping
    exception {e was} the injected object (by heap identity).  Never
    call this with a timed-out representative — wall-clock aborts are
    not bisimilar. *)
