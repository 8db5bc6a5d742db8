(* Injection-campaign pruning (paper §4.1 meets exception-flow
   analysis).

   The prefix-sharing walk ({!Detect.walk_with}) reaches every injection
   point of the uninjected run, entry by entry; under [--prune coalesce]
   it splits each dynamic entry's points into handler-blindness groups
   with an {!Exnflow} analysis: within one entry, injected classes that
   every possibly-active handler is blind to produce runs that differ
   only in the class tag of the injected exception object, so one
   representative run per group is executed and the members' records
   are synthesized from it.

   Soundness of the synthesis rests on the blindness bisimulation
   (doc/exnflow.md): the paired runs' states are identical except for
   the class tag of the injected object, which only the [injected]
   and [escaped] fields of the record can observe — exactly the two
   fields {!synthesize} rewrites. *)

type group = {
  site : Method_id.t;
  members : (int * string) list;
      (* (threshold, class) per point of this blindness group, in
         injectable order; the head is the representative *)
  first_visit : bool; (* first dynamic entry of this site in the run *)
}

let rep g = List.hd g.members

(* Partition one entry's (threshold, class) points into blindness
   groups, preserving first-occurrence order.  Works on indexed pairs
   rather than through {!Exnflow.partition} so duplicate class names
   keep distinct thresholds. *)
let partition_pairs flow site pairs =
  let groups = ref [] in
  List.iter
    (fun (t, e) ->
      match
        List.find_opt
          (fun ((_, rep_class), _) -> Exnflow.blind_pair flow site rep_class e)
          !groups
      with
      | Some (_, members) -> members := (t, e) :: !members
      | None -> groups := !groups @ [ ((t, e), ref [ (t, e) ]) ])
    pairs;
  List.map (fun (_, members) -> List.rev !members) !groups

(* Member records synthesized from the representative's: identical
   modulo the injected class tag.  [injected_escaped] tells whether
   the exception escaping [main] in the representative run was the
   injected object itself (by heap identity): if so the member's
   escaping class is its own injected class, otherwise the natural
   escaped class carries over unchanged. *)
let synthesize g ~(rep_record : Marks.run_record) ~injected_escaped :
    Marks.run_record list =
  List.map
    (fun (threshold, exn_class) ->
      { rep_record with
        Marks.injection_point = threshold;
        injected = Some (g.site, exn_class);
        escaped =
          (if injected_escaped then Some exn_class else rep_record.Marks.escaped) })
    (List.tl g.members)
