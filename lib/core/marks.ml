(* Records produced by the detection phase.

   Every injection run yields a {!run_record}: which injection point was
   armed, where the exception was actually injected, and the sequence of
   atomicity marks emitted by the wrappers while the exception
   propagated from callee to caller (Listing 1's [mark] calls, in
   order).  The classifier consumes these records. *)

type mark = {
  meth : Method_id.t;
  atomic : bool;
  diff_path : string option;
      (* for non-atomic marks: first field path where the object graph
         diverged from the pre-call snapshot *)
  exn_id : int;
      (* identity of the propagating exception object: marks with the
         same [exn_id] belong to one callee-to-caller propagation
         chain, which is the unit over which "first method marked
         non-atomic" (Definition 3) is evaluated *)
}

type sched_info = {
  sched_spec : string; (* the policy spec this run executed under *)
  sched_switches : int; (* thread switches during the run *)
  sched_digest : string;
      (* FNV-1a digest of the scheduler's decision stream; equal digests
         with equal specs mean bit-identical interleavings *)
}

type run_record = {
  injection_point : int; (* the armed threshold of this run *)
  injected : (Method_id.t * string) option;
      (* injection site and exception class; [None] for the final probe
         run in which the threshold exceeded the number of points *)
  marks : mark list; (* callee-to-caller propagation order *)
  escaped : string option; (* exception class escaping [main], if any *)
  output : string; (* program output of this run *)
  calls : int; (* dynamic method+constructor calls in this run *)
  timed_out : bool;
      (* the run was aborted by the per-run wall-clock timeout; its marks
         are the (valid) observations made before the abort, but a
         timed-out run never establishes the detection frontier even
         when no injection fired *)
  sched : sched_info option;
      (* [Some] only for runs under a non-coop schedule; [None] keeps
         sequential records (and their log rendering) byte-identical to
         the pre-scheduler pipeline *)
}

let pp_mark ppf { meth; atomic; diff_path; _ } =
  Fmt.pf ppf "%a:%s%a" Method_id.pp meth
    (if atomic then "atomic" else "NON-ATOMIC")
    Fmt.(option (fun ppf p -> pf ppf "@@%s" p))
    diff_path
