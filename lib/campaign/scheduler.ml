(* Claiming injection points for a campaign's walking workers.

   The detection loop (paper §4.1) arms InjectionPoint = 1, 2, 3, … and
   stops at the first run that completes with no injection: the
   *frontier*.  Every worker walks the uninjected run and offers each
   point it reaches to [visit], which claims it for that worker unless
   it is claimed or on file already.  All walks visit the same points in
   the same order, so nothing is claimed past the frontier: the first
   walk to finish files the probe, and that fixes the frontier.

   The scheduler itself is plain single-threaded state; {!Campaign}
   serialises access with a mutex.  [record] and [adopt] file runs
   (from workers or from a resumed journal), and [runs] extracts the
   merged, frontier-truncated run list. *)

open Failatom_core

type stats = {
  executed : int;  (* runs completed by workers in this invocation *)
  reused : int;  (* journaled runs adopted without re-execution *)
  synthesized : int;  (* adopted runs no worker executed (coalesce) *)
}

type t = {
  mutable next : int;  (* smallest point neither claimed nor on file *)
  mutable contiguous : int;  (* largest c with runs 1..c all recorded *)
  claimed : (int, unit) Hashtbl.t;  (* claimed, not yet recorded *)
  completed : (int, Marks.run_record) Hashtbl.t;
  from_journal : (int, unit) Hashtbl.t;
  mutable frontier : int option;  (* least threshold that did not inject *)
  mutable executed : int;
  mutable adopted : int;  (* newly filed by adopt, not executed/reused *)
  mutable injected_runs : int;  (* recorded runs in which an exception fired *)
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
          been reached yet. *)
       ()
     | Some _ -> t.injected_runs <- t.injected_runs + 1);
    advance_contiguous t
  end

let create ?(journaled = []) () =
  let t =
    { next = 1;
      contiguous = 0;
      claimed = Hashtbl.create 64;
      completed = Hashtbl.create 256;
      from_journal = Hashtbl.create 64;
      frontier = None;
      executed = 0;
      adopted = 0;
      injected_runs = 0 }
  in
  List.iter (fun r -> file t r ~journal:true) journaled;
  t

let adopt t (r : Marks.run_record) =
  let fresh = not (Hashtbl.mem t.completed r.Marks.injection_point) in
  file t r ~journal:false;
  if fresh then t.adopted <- t.adopted + 1

let record t (r : Marks.run_record) =
  t.executed <- t.executed + 1;
  file t r ~journal:false

let taken t point = Hashtbl.mem t.claimed point || Hashtbl.mem t.completed point

let group_complete t (g : Prune.group) =
  List.for_all (fun (th, _) -> Hashtbl.mem t.completed th) g.Prune.members

let finished t =
  match t.frontier with Some f -> t.contiguous >= f | None -> false

let filed t point = Hashtbl.mem t.completed point

(* Every walk visits the same points in the same order and claims each
   unclaimed one it reaches, so the claimed and filed points always
   form a prefix of the reached ones and no run is ever speculative.  A
   group is run when its head is unclaimed and some member is not yet
   on file — a group with any missing member is re-run wholesale, since
   the representative's run yields the members' records and runs are
   deterministic; once the frontier is known and every point up to it
   is taken, walks stop. *)
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

(* The merged campaign result: thresholds 1 .. frontier in order; a
   journaled record past the frontier (left by an older campaign engine
   that ran thresholds speculatively) is dropped.  Only meaningful once
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
  { executed = t.executed; reused; synthesized = t.adopted }

(* Progress snapshot: (recorded runs, runs that injected, needed total
   once the frontier is known, runs executed).  Constant time: it is
   taken after every filed record. *)
let progress t =
  (Hashtbl.length t.completed, t.injected_runs, t.frontier, t.executed)
