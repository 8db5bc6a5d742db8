(* Interleaving-based non-atomicity detection: the schedule axis.

   The three concurrent Table-1 analogues each carry one seeded
   violation that injection alone cannot expose — the probe method
   mutates nothing, so under the cooperative schedule every injected
   unwind sees an unchanged heap.  Only the cross product of schedule
   exploration and injection detects it.  These tests pin that
   differential (per app, per flavor), the swept run log against the
   golden engine table, byte-identity of sequential detection with
   schedules configured, campaign/sequential agreement including
   journal resume, replay of individual runs from their journaled
   schedule specs, and the per-thread COW dirty-set partition. *)

open Failatom_core
open Failatom_runtime
open Failatom_apps
module Minilang = Failatom_minilang.Minilang
module Campaign = Failatom_campaign.Campaign
module Journal = Failatom_campaign.Journal
module Progress = Failatom_campaign.Progress

let parse = Minilang.parse

(* The `--schedules 4` expansion: coop plus three slice seeds.  This is
   the sweep EXPERIMENTS.md reports; it exposes all three seeded
   violations. *)
let sweep = [ "coop"; "slice:1"; "slice:2"; "slice:3" ]
let sweep_config = { Config.default with Config.schedules = sweep }

(* app name, seeded read-only probe whose non-atomicity needs the
   schedule axis *)
let seeded =
  [ ("StripedMap", Method_id.make "StripedMap" "snapshotTotal");
    ("BoundedBuffer", Method_id.make "BoundedBuffer" "audit");
    ("WorkQueue", Method_id.make "WorkQueue" "progress") ]

let verdict_t =
  Alcotest.testable
    (Fmt.of_to_string Classify.verdict_name)
    (fun (a : Classify.verdict) b -> a = b)

let find_app name = Option.get (Registry.find name)

(* ------------------------------------------------------------------ *)
(* (a) the differential: violation detected only under the sweep       *)
(* ------------------------------------------------------------------ *)

let check_schedule_differential (name, meth) flavor () =
  let program = parse (find_app name).Registry.source in
  let coop = Detect.run ~flavor program in
  let swept = Detect.run ~config:sweep_config ~flavor program in
  Alcotest.(check bool) "coop transparent" true coop.Detect.transparent;
  Alcotest.(check bool) "sweep transparent" true swept.Detect.transparent;
  (* one full unpruned campaign per schedule, one probe each *)
  Alcotest.(check int) "injections scale with the schedule count"
    (List.length sweep * coop.Detect.injections)
    swept.Detect.injections;
  let verdict_of d =
    match Classify.verdict (Classify.classify d) meth with
    | Some v -> v
    | None -> Alcotest.failf "%s not classified" (Method_id.to_string meth)
  in
  Alcotest.check verdict_t "atomic under coop alone" Classify.Atomic (verdict_of coop);
  Alcotest.check verdict_t "pure non-atomic under the sweep"
    Classify.Pure_non_atomic (verdict_of swept);
  (* records are tagged with the schedule they ran under: coop runs
     carry no sched info (journal byte-compat), non-coop runs carry
     their spec and a 16-hex-digit decision digest *)
  List.iter
    (fun (r : Marks.run_record) ->
      match r.Marks.sched with
      | None -> ()
      | Some s ->
        Alcotest.(check bool)
          "spec is from the sweep" true
          (List.mem s.Marks.sched_spec (List.tl sweep));
        Alcotest.(check int) "digest length" 16 (String.length s.Marks.sched_digest))
    swept.Detect.runs;
  Alcotest.(check bool) "coop-only runs never carry sched info" true
    (List.for_all (fun (r : Marks.run_record) -> r.Marks.sched = None) coop.Detect.runs);
  let tagged =
    List.length
      (List.filter (fun (r : Marks.run_record) -> r.Marks.sched <> None) swept.Detect.runs)
  in
  (* three of the four phases are non-coop: each contributes its
     injections plus its probe *)
  Alcotest.(check int) "three quarters of the sweep is tagged"
    (3 * (coop.Detect.injections + 1))
    tagged

let differential_cases =
  List.concat_map
    (fun app ->
      List.map
        (fun flavor ->
          Alcotest.test_case
            (Printf.sprintf "schedule differential %s (%s)" (fst app)
               (Detect.flavor_name flavor))
            `Slow
            (check_schedule_differential app flavor))
        [ Detect.Source_weaving; Detect.Load_time_filters ])
    seeded

(* ------------------------------------------------------------------ *)
(* (b) the swept run log is pinned                                     *)
(* ------------------------------------------------------------------ *)

(* Preemption opportunities are method-call boundaries, so a full swept
   detection, serialized as a run log (schedule specs, decision digests,
   marks, outputs), is pinned in the golden engine table. *)
let test_sweep_golden () = Engine_golden.check "sweep WorkQueue"

(* ------------------------------------------------------------------ *)
(* (c) sequential programs: schedules configured, nothing changes      *)
(* ------------------------------------------------------------------ *)

let check_sequential_unchanged name () =
  let program = parse (find_app name).Registry.source in
  let before = Run_log.save (Detect.run program) in
  let after = Detect.run ~config:sweep_config program in
  Alcotest.(check string)
    "run log byte-identical with schedules configured" before (Run_log.save after);
  Alcotest.(check bool) "no record carries sched info" true
    (List.for_all (fun (r : Marks.run_record) -> r.Marks.sched = None) after.Detect.runs)

(* ------------------------------------------------------------------ *)
(* (d) campaign agreement and journal resume across phases             *)
(* ------------------------------------------------------------------ *)

let with_temp_journal f =
  let path = Filename.temp_file "failatom_conc" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let truncate_journal path ~keep =
  let lines = String.split_on_char '\n' (read_file path) in
  let buf = Buffer.create 4096 in
  let kept = ref 0 in
  List.iter
    (fun line ->
      if !kept < keep then begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        if String.equal line "endrun" then incr kept
      end)
    lines;
  write_file path (Buffer.contents buf)

let test_campaign_agreement () =
  let program = parse (find_app "WorkQueue").Registry.source in
  let seq = Detect.run ~config:sweep_config program in
  let par, _ = Campaign.run ~config:sweep_config ~jobs:4 program in
  Alcotest.(check bool) "identical run records" true (seq.Detect.runs = par.Detect.runs);
  Alcotest.(check int) "same injections" seq.Detect.injections par.Detect.injections;
  Alcotest.(check bool) "same transparency" seq.Detect.transparent par.Detect.transparent

(* A killed swept campaign resumes from a journal holding several
   phases' runs mixed; each phase must adopt exactly its own prior
   work, and the merged result must equal the uninterrupted one. *)
let test_campaign_resume_partitions () =
  let program = parse (find_app "BoundedBuffer").Registry.source in
  let uninterrupted, _ = Campaign.run ~config:sweep_config ~jobs:2 program in
  with_temp_journal (fun journal ->
      let _ = Campaign.run ~config:sweep_config ~jobs:2 ~journal program in
      (* cut deep enough into the journal that several phases' records
         (coop plus at least one slice phase) are in the kept prefix *)
      let keep = (List.length uninterrupted.Detect.runs * 3 / 8) + 2 in
      truncate_journal journal ~keep;
      let resumed, summary =
        Campaign.run ~config:sweep_config ~jobs:2 ~journal ~resume:true program
      in
      Alcotest.(check bool)
        "resumed result identical to uninterrupted" true
        (uninterrupted.Detect.runs = resumed.Detect.runs);
      Alcotest.(check bool) "same transparency"
        uninterrupted.Detect.transparent resumed.Detect.transparent;
      Alcotest.(check bool) "journaled prefix adopted" true
        (summary.Progress.reused > 0);
      (* a complete journal executes nothing on resume *)
      let again, s2 =
        Campaign.run ~config:sweep_config ~jobs:2 ~journal ~resume:true program
      in
      Alcotest.(check int) "complete journal: nothing executed" 0 s2.Progress.executed;
      Alcotest.(check bool) "complete journal: identical result" true
        (uninterrupted.Detect.runs = again.Detect.runs))

(* ------------------------------------------------------------------ *)
(* (e) replay: a journaled record reproduces bit-for-bit               *)
(* ------------------------------------------------------------------ *)

(* Every concurrent run is a pure function of (program, threshold,
   schedule spec): re-executing any record of a swept detection with
   the spec it carries reproduces the record exactly — marks, output,
   switch count, decision digest. *)
let test_replay_bit_identity () =
  let program = parse (find_app "WorkQueue").Registry.source in
  let d = Detect.run ~config:sweep_config program in
  let compiled = Detect.compile Detect.Source_weaving program in
  let prepare (_ : Vm.t) = () in
  let noncoop =
    List.filter (fun (r : Marks.run_record) -> r.Marks.sched <> None) d.Detect.runs
  in
  Alcotest.(check bool) "swept detection has non-coop records" true (noncoop <> []);
  (* a sample across the phase: first, a middle record and the last *)
  let n = List.length noncoop in
  List.iter
    (fun (r : Marks.run_record) ->
      let spec = (Option.get r.Marks.sched).Marks.sched_spec in
      let policy = Option.get (Sched.policy_of_string spec) in
      let replayed =
        Detect.run_once ~schedule:(spec, policy) compiled d.Detect.config
          d.Detect.analyzer ~prepare ~threshold:r.Marks.injection_point
      in
      Alcotest.(check bool)
        (Printf.sprintf "threshold %d under %s replays bit-for-bit"
           r.Marks.injection_point spec)
        true (replayed = r))
    [ List.hd noncoop; List.nth noncoop (n / 2); List.nth noncoop (n - 1) ]

(* ------------------------------------------------------------------ *)
(* (f) per-thread COW dirty sets                                       *)
(* ------------------------------------------------------------------ *)

(* A dirty object belongs to exactly one thread — the one whose write
   first saved it — so the per-thread sets partition the merged dirty
   set.  The property drives random cross-thread mutation scripts and
   checks the partition against an independently tracked first-writer
   map. *)
let dirty_partition_prop =
  QCheck2.Test.make ~name:"per-thread dirty sets partition the shadow's dirty set"
    ~count:200
    QCheck2.Gen.(triple (int_range 1 12) (int_range 0 40) int)
    (fun (nobjs, steps, seed) ->
      let heap = Heap.create () in
      let ids =
        Array.init nobjs (fun i ->
            Heap.alloc_object heap ~cls:"C" [ ("v", Value.Int i) ])
      in
      let rs = Random.State.make [| seed |] in
      Shadow.with_shadow heap (fun sh ->
          let first_writer = Hashtbl.create 16 in
          for _ = 1 to steps do
            let tid = Random.State.int rs 4 in
            let id = ids.(Random.State.int rs nobjs) in
            Heap.set_cur_tid heap tid;
            if not (Hashtbl.mem first_writer id) then Hashtbl.add first_writer id tid;
            if Random.State.int rs 8 = 0 && Heap.mem heap id then Heap.free heap id
            else if Heap.mem heap id then
              Heap.set_field heap id "v" (Value.Int (Random.State.int rs 1000))
          done;
          let merged = ref [] in
          Shadow.iter_saved sh (fun id _ -> merged := id :: !merged);
          let merged = List.sort compare !merged in
          let by_thread = Shadow.dirty_by_thread sh in
          let union = List.sort compare (List.concat_map snd by_thread) in
          (* union over threads = merged dirty set, with no aliasing:
             each object appears under exactly its first writer *)
          union = merged
          && List.for_all
               (fun (tid, objs) ->
                 List.for_all
                   (fun id -> Hashtbl.find_opt first_writer id = Some tid)
                   objs)
               by_thread
          && Shadow.dirty_count sh = List.length merged))

(* Directed shape of the same guarantee: a second thread's write to an
   already-dirty object must not move it between dirty sets. *)
let test_no_cross_thread_alias () =
  let heap = Heap.create () in
  let id = Heap.alloc_object heap ~cls:"C" [ ("v", Value.Int 0) ] in
  Shadow.with_shadow heap (fun sh ->
      Heap.set_cur_tid heap 1;
      Heap.set_field heap id "v" (Value.Int 1);
      Heap.set_cur_tid heap 2;
      Heap.set_field heap id "v" (Value.Int 2);
      Alcotest.(check bool) "owned by the first writer only" true
        (Shadow.dirty_by_thread sh = [ (1, [ id ]) ]);
      (* the saved payload is still the pre-write one *)
      match Shadow.saved_payload sh id with
      | Some p ->
        Alcotest.(check bool) "pre-write payload saved" true
          (Test_heap.saved_field p "v" = Some (Value.Int 0))
      | None -> Alcotest.fail "expected a saved object payload")

(* Heap identities come from an Atomic counter: concurrent heap
   creation across domains (the campaign's workers) must never produce
   a duplicate uid. *)
let test_heap_uids_distinct_across_domains () =
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> List.init 64 (fun _ -> (Heap.create ()).Heap.uid)))
  in
  let uids = List.concat_map Domain.join domains in
  Alcotest.(check int) "no uid collision across domains"
    (List.length uids)
    (List.length (List.sort_uniq compare uids))

let suite =
  [ Alcotest.test_case "sweep log matches the golden table" `Slow test_sweep_golden;
    Alcotest.test_case "sequential detection unchanged (Synthetic)" `Quick
      (check_sequential_unchanged "Synthetic");
    Alcotest.test_case "sequential detection unchanged (LinkedList)" `Slow
      (check_sequential_unchanged "LinkedList");
    Alcotest.test_case "campaign agrees with sequential sweep" `Slow
      test_campaign_agreement;
    Alcotest.test_case "campaign resume partitions phases" `Slow
      test_campaign_resume_partitions;
    Alcotest.test_case "journaled records replay bit-for-bit" `Slow
      test_replay_bit_identity;
    Alcotest.test_case "no cross-thread shadow aliasing" `Quick
      test_no_cross_thread_alias;
    Alcotest.test_case "heap uids distinct across domains" `Quick
      test_heap_uids_distinct_across_domains;
    QCheck_alcotest.to_alcotest dirty_partition_prop ]
  @ differential_cases
