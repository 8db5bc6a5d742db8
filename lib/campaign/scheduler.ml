(* Claiming injection thresholds for a campaign's workers.

   The detection loop (paper §4.1) arms InjectionPoint = 1, 2, 3, … and
   stops at the first run that completes with no injection: the
   *frontier*.  Workers claim thresholds in one of two ways.

   - Walking workers (sequential programs) each walk the uninjected run
     and offer every point they reach to [visit], which claims it for
     that worker unless it is claimed or on file already.  All walks
     visit the same points in the same order, so nothing is claimed
     past the frontier: the first walk to finish files the probe, and
     that fixes the frontier.

   - Fresh-VM workers (concurrent programs, [prepare] hooks, per-run
     timeouts) take thresholds from [claim].  The frontier is unknown
     until it is reached, so [claim] speculates: it dispatches
     thresholds past the highest completed one and the over-run past
     the frontier is discarded once it is found.  Because every run is
     deterministic and independent (fresh VM and heap per run),
     discarding the over-run is enough to make the merged result
     identical to the sequential loop's.  Speculation is bounded by a
     *horizon* that starts at one batch per worker and doubles every
     time the whole window below it completes without finding the
     frontier — so a campaign near its (unknown) frontier wastes at most
     one window of runs, while a campaign far from it quickly reaches
     full parallelism.

   The scheduler itself is plain single-threaded state; {!Campaign}
   serialises access with a mutex.  [record] and [adopt] file runs
   (from workers or from a resumed journal), and [runs] extracts the
   merged, frontier-truncated run list. *)

open Failatom_core

type claim =
  | Claimed of int  (* execute this threshold *)
  | Claimed_group of Prune.group
      (* coalesce: execute the representative, synthesize the members *)
  | Wait  (* nothing useful below the horizon; block until a record *)
  | Done  (* every needed threshold is claimed or complete *)
  | Exhausted  (* max_runs runs completed and none was injection-free *)

type stats = {
  executed : int;  (* runs completed by workers in this invocation *)
  reused : int;  (* journaled runs adopted without re-execution *)
  discarded : int;  (* speculative runs recorded past the frontier *)
  synthesized : int;  (* adopted runs no worker executed (coalesce) *)
}

type t = {
  max_runs : int;
  mutable horizon : int;  (* speculation bound while the frontier is unknown *)
  mutable next : int;  (* smallest never-claimed threshold *)
  mutable contiguous : int;  (* largest c with runs 1..c all recorded *)
  claimed : (int, unit) Hashtbl.t;  (* claimed, not yet recorded *)
  completed : (int, Marks.run_record) Hashtbl.t;
  from_journal : (int, unit) Hashtbl.t;
  mutable frontier : int option;  (* least threshold that did not inject *)
  mutable executed : int;
  mutable adopted : int;  (* newly filed by adopt, not executed/reused *)
  mutable injected_runs : int;  (* recorded runs in which an exception fired *)
  plan : Prune.plan option;  (* coalesce plan; frontier known upfront *)
  mutable plan_queue : Prune.group list;  (* groups not yet handed out *)
}

let frontier t = t.frontier

let note_frontier t point =
  match t.frontier with
  | Some f when f <= point -> ()
  | Some _ | None -> t.frontier <- Some point

let advance_contiguous t =
  while Hashtbl.mem t.completed (t.contiguous + 1) do
    t.contiguous <- t.contiguous + 1
  done

(* Doubles the horizon whenever the whole current window has completed
   without revealing the frontier. *)
let grow_horizon t =
  while t.frontier = None && t.contiguous >= t.horizon && t.horizon < t.max_runs do
    t.horizon <- min (2 * t.horizon) t.max_runs
  done

let file t (r : Marks.run_record) ~journal =
  let point = r.Marks.injection_point in
  Hashtbl.remove t.claimed point;
  if not (Hashtbl.mem t.completed point) then begin
    Hashtbl.replace t.completed point r;
    if journal then Hashtbl.replace t.from_journal point ();
    (match r.Marks.injected with
     | None when not r.Marks.timed_out -> note_frontier t point
     | None ->
       (* Timed out before any injection fired: the run proves nothing
          about the frontier — the injection point may simply not have
          been reached yet.  Keep probing; an all-timeout campaign ends
          at max_runs with [Exhausted]. *)
       ()
     | Some _ -> t.injected_runs <- t.injected_runs + 1);
    advance_contiguous t;
    grow_horizon t
  end

let create ?(journaled = []) ?plan ~max_runs ~jobs () =
  let t =
    { max_runs;
      horizon = max (2 * jobs) 4;
      next = 1;
      contiguous = 0;
      claimed = Hashtbl.create 64;
      completed = Hashtbl.create 256;
      from_journal = Hashtbl.create 64;
      frontier = None;
      executed = 0;
      adopted = 0;
      injected_runs = 0;
      plan;
      plan_queue = (match plan with Some p -> p.Prune.order | None -> []) }
  in
  (* With a coalesce plan the trace run already proved the frontier:
     no speculation, no horizon. *)
  (match plan with Some p -> t.frontier <- Some p.Prune.frontier | None -> ());
  List.iter (fun r -> file t r ~journal:true) journaled;
  grow_horizon t;
  t

let adopt t (r : Marks.run_record) =
  let fresh = not (Hashtbl.mem t.completed r.Marks.injection_point) in
  file t r ~journal:false;
  if fresh then t.adopted <- t.adopted + 1

let record t (r : Marks.run_record) =
  t.executed <- t.executed + 1;
  let speculative =
    match t.frontier with Some f -> r.Marks.injection_point > f | None -> false
  in
  file t r ~journal:false;
  if speculative then `Speculative else `Kept

let taken t point = Hashtbl.mem t.claimed point || Hashtbl.mem t.completed point

let group_complete t (g : Prune.group) =
  List.for_all (fun (th, _) -> Hashtbl.mem t.completed th) g.Prune.members

(* Plan-driven claiming: hand out whole blindness groups in the plan's
   seeded order, skipping groups every member of which is already on
   file (a resumed journal).  A group with *any* missing member is
   re-claimed wholesale — the representative must be (re-)executed to
   synthesize members, and runs are deterministic, so a re-executed
   representative files an identical record. *)
let claim_from_plan t =
  let rec pop () =
    match t.plan_queue with
    | g :: rest ->
      t.plan_queue <- rest;
      if group_complete t g then pop ()
      else begin
        Hashtbl.replace t.claimed (fst (Prune.rep g)) ();
        Claimed_group g
      end
    | [] ->
      let done_ =
        match t.frontier with Some f -> t.contiguous >= f | None -> false
      in
      if done_ || Hashtbl.length t.claimed = 0 then Done else Wait
  in
  pop ()

let claim t =
  if Option.is_some t.plan then claim_from_plan t
  else begin
  while taken t t.next do
    t.next <- t.next + 1
  done;
  match t.frontier with
  | Some f ->
    if t.next <= f then begin
      Hashtbl.replace t.claimed t.next ();
      Claimed t.next
    end
    else Done
  | None ->
    if t.next > t.max_runs then
      if t.contiguous >= t.max_runs then Exhausted else Wait
    else if t.next <= t.horizon then begin
      Hashtbl.replace t.claimed t.next ();
      Claimed t.next
    end
    else Wait
  end

let finished t =
  match t.frontier with Some f -> t.contiguous >= f | None -> false

let filed t point = Hashtbl.mem t.completed point

(* Walk-driven claiming: every walk visits the same points in the same
   order and claims each unclaimed one it reaches, so the claimed and
   filed points always form a prefix of the reached ones and no run is
   ever speculative.  A group is forked when its head is unclaimed and
   some member is not yet on file; once the frontier is known and every
   point up to it is taken, walks stop. *)
let visit t (g : Prune.group) =
  while taken t t.next do
    t.next <- t.next + 1
  done;
  match t.frontier with
  | Some f when t.next > f -> Detect.Stop
  | Some _ | None ->
    let head = fst (Prune.rep g) in
    if Hashtbl.mem t.claimed head || group_complete t g then Detect.Pass
    else begin
      List.iter
        (fun (th, _) ->
          if th = head || not (Hashtbl.mem t.completed th) then
            Hashtbl.replace t.claimed th ())
        g.Prune.members;
      Detect.Fork
    end

(* The merged campaign result: thresholds 1 .. frontier in order, every
   speculative record past the frontier dropped.  Only meaningful once
   [finished]. *)
let runs t =
  match t.frontier with
  | None -> invalid_arg "Scheduler.runs: campaign not finished"
  | Some f ->
    List.init f (fun i ->
        match Hashtbl.find_opt t.completed (i + 1) with
        | Some r -> r
        | None -> invalid_arg "Scheduler.runs: campaign not finished")

let stats t =
  let frontier = match t.frontier with Some f -> f | None -> max_int in
  let reused =
    Hashtbl.fold
      (fun point () acc -> if point <= frontier then acc + 1 else acc)
      t.from_journal 0
  in
  let discarded =
    Hashtbl.fold
      (fun point _ acc ->
        if point > frontier && not (Hashtbl.mem t.from_journal point) then acc + 1
        else acc)
      t.completed 0
  in
  { executed = t.executed; reused; discarded; synthesized = t.adopted }

(* Progress snapshot: (recorded runs, runs that injected, needed total
   once the frontier is known, runs executed).  Constant time: it is
   taken after every filed record. *)
let progress t =
  (Hashtbl.length t.completed, t.injected_runs, t.frontier, t.executed)
