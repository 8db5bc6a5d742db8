(** Injection-campaign pruning under [--prune coalesce].

    The prefix-sharing walk ({!Detect.walk_with}) partitions the points
    of each dynamic entry into handler-blindness groups with an
    {!Exnflow} analysis as it reaches them; one representative run per
    group executes and the other members' records are synthesized from
    it ({!synthesize}).  The walk itself is the point census. *)

type group = {
  site : Method_id.t;
  members : (int * string) list;
      (** (threshold, injected class) per point of the group, in
          injectable order; the head is the representative *)
  first_visit : bool;
      (** this entry is the first dynamic visit of [site] *)
}

val partition_pairs :
  Exnflow.t -> Method_id.t -> (int * string) list -> (int * string) list list
(** [partition_pairs flow site points] splits the (threshold, injected
    class) points of one dynamic entry of [site] into handler-blindness
    groups, in first-occurrence order, each group in point order.
    The prefix-sharing walk applies it to each entry as it is
    reached. *)

val rep : group -> int * string
(** The representative point (lowest threshold) of a group. *)

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
