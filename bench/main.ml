(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6).

   - Table 1           : per-application #classes / #methods / #injections
   - Figures 2(a), 3(a): method classification, % of methods defined & used
   - Figures 2(b), 3(b): method classification, % of method calls
   - Figures 4(a), 4(b): class-level classification
   - §6.1 case study   : LinkedList before/after the trivial fixes
   - Figure 5          : masking overhead vs checkpointed-object size and
                         fraction of calls to wrapped methods (Bechamel)
   - Ablations         : the copy-on-write checkpoint every wrapper uses
                         (against Figure 5's eager one), and wrap-pure vs
                         wrap-all masking policies

   Absolute times differ from the paper's 2003 hardware; the reproduced
   quantity is the shape: who is non-atomic, how the proportions fall,
   and how masking overhead grows with checkpoint size and call ratio.

   Beyond the paper, the campaign section measures the parallel
   detection-campaign engine: wall-clock of the full detection phase at
   1/2/4/8 worker domains on every bundled application.  The snapshot
   section compares the eager oracle against copy-on-write detection
   snapshots, the production path, per application and writes the
   machine-readable BENCH_detect.json; set BENCH_SHORT=1 for the quick CI subset.  The
   interp section measures the flat-bytecode interpreter in best-of-N
   rounds with stddev, gates its geomean at >= 2.0x the committed
   baseline file (failing when the file, a line of it or an app's row
   is unusable), and writes BENCH_interp.json plus a folded-stack
   opcode/span profile (BENCH_interp.folded).

   Beyond the paper still, the obs-overhead section proves the
   observability layer (lib/obs/) keeps detection marks bitwise
   identical with metrics enabled and costs the interpreter < 2%
   throughput, writing BENCH_obs.json.  The prune section measures the
   static exception-flow pruner (--prune coalesce) against the unpruned
   campaign per application — run census, wall clock, and a bitwise
   identity check — gating RBTree at >= 30% runs eliminated and the
   geomean speedup at >= 1.3x, writing BENCH_prune.json.  The mask
   section measures the production masking runtime (lib/prod): armed
   runs with a rate-1000 canary report the wrapper's entry cost per
   call and its rollback cost per hit, per application.

   Usage: main.exe [section...] where section is one of
   table1 fig2 fig3 fig4 fig5 case-study campaign snapshot ablation
   prune mask interp obs-overhead server cluster (default: all). *)

open Bechamel
open Failatom_runtime
open Failatom_core
open Failatom_apps

(* ------------------------------------------------------------------ *)
(* Application sweep: Table 1 and Figures 2-4                          *)
(* ------------------------------------------------------------------ *)

let sweep =
  lazy
    (let t0 = Unix.gettimeofday () in
     let outcomes =
       List.map
         (fun app ->
           let o = Harness.detect_app app in
           Fmt.pr "  detected %-13s (%5d injections, %s flavor)@."
             app.Registry.name o.Harness.detection.Detect.injections
             (Detect.flavor_name o.Harness.detection.Detect.flavor);
           o)
         Registry.all
     in
     Fmt.pr "  sweep completed in %.1fs@." (Unix.gettimeofday () -. t0);
     outcomes)

let reports_of suite =
  List.filter_map
    (fun (o : Harness.outcome) ->
      if o.Harness.app.Registry.suite = suite then Some o.Harness.report else None)
    (Lazy.force sweep)

let section_table1 () =
  Fmt.pr "@.== Table 1: application statistics =====================================@.";
  Report.pp_table1 Fmt.stdout
    (List.map (fun (o : Harness.outcome) -> o.Harness.report) (Lazy.force sweep))

let section_fig2 () =
  Report.pp_figure_methods Fmt.stdout
    ~title:"Figure 2(a): C++ method classification (% of methods defined and used)"
    (reports_of Registry.Cpp);
  Report.pp_figure_calls Fmt.stdout
    ~title:"Figure 2(b): C++ method classification (% of method calls)"
    (reports_of Registry.Cpp)

let section_fig3 () =
  Report.pp_figure_methods Fmt.stdout
    ~title:"Figure 3(a): Java method classification (% of methods defined and used)"
    (reports_of Registry.Java);
  Report.pp_figure_calls Fmt.stdout
    ~title:"Figure 3(b): Java method classification (% of method calls)"
    (reports_of Registry.Java)

let section_fig4 () =
  Report.pp_figure_classes Fmt.stdout
    ~title:"Figure 4(a): C++ class classification (% of classes defined and used)"
    (reports_of Registry.Cpp);
  Report.pp_figure_classes Fmt.stdout
    ~title:"Figure 4(b): Java class classification (% of classes defined and used)"
    (reports_of Registry.Java)

(* ------------------------------------------------------------------ *)
(* 6.1 case study: LinkedList before/after trivial fixes               *)
(* ------------------------------------------------------------------ *)

let section_case_study () =
  Fmt.pr "@.== Case study (paper 6.1): repairing LinkedList ========================@.";
  let before = Harness.detect_app (Option.get (Registry.find "LinkedList")) in
  let after = Harness.detect_app Registry.linked_list_fixed in
  let describe label (o : Harness.outcome) =
    let pure = Classify.pure_methods o.Harness.classification in
    let calls = Classify.call_counts o.Harness.classification in
    let share = Report.pct calls.Classify.pure (Classify.total calls) in
    Fmt.pr "%-28s %d pure non-atomic method(s), %.1f%% of calls@." label
      (List.length pure) share;
    List.iter (fun id -> Fmt.pr "    %s@." (Method_id.to_string id)) pure
  in
  describe "original LinkedList:" before;
  describe "after trivial fixes:" after;
  Fmt.pr
    "(paper: 18 pure non-atomic methods at 7.8%% of calls reduced to 3 at <0.2%%;@.";
  Fmt.pr
    " here the workload is smaller, but the same fix pattern collapses the set)@."

(* ------------------------------------------------------------------ *)
(* Campaign scaling: parallel detection wall-clock vs worker domains   *)
(* ------------------------------------------------------------------ *)

let campaign_jobs = [ 1; 2; 4; 8 ]

let section_campaign () =
  Fmt.pr "@.== Campaign scaling: detection wall-clock vs worker domains ===========@.";
  Fmt.pr "  (speculative batch scheduling; every result verified identical to the@.";
  Fmt.pr "   sequential detector; times in seconds, speedup vs --jobs 1)@.";
  Fmt.pr "  hardware: %d core(s) available — wall-clock gains need cores > 1@."
    (Domain.recommended_domain_count ());
  Fmt.pr "%-14s %6s" "Application" "runs";
  List.iter (fun j -> Fmt.pr "%9s" (Printf.sprintf "j=%d" j)) campaign_jobs;
  Fmt.pr "%10s@." "speedup";
  let totals = Array.make (List.length campaign_jobs) 0.0 in
  let reuse_saved = ref 0.0 in
  List.iter
    (fun (app : Registry.t) ->
      let sequential = Harness.detect_app app in
      (* the campaign builds one image, shared by all worker domains;
         before the staged split every run recompiled, so each campaign
         paid the image cost [runs] times instead of once *)
      let program = Failatom_minilang.Minilang.parse app.Registry.source in
      let flavor = Harness.flavor_of_suite app.Registry.suite in
      let t0 = Unix.gettimeofday () in
      ignore (Detect.compile flavor program);
      let image_s = Unix.gettimeofday () -. t0 in
      reuse_saved :=
        !reuse_saved
        +. (float_of_int sequential.Harness.detection.Detect.injections *. image_s);
      let times =
        List.mapi
          (fun i jobs ->
            let outcome, summary = Harness.detect_app_parallel ~jobs app in
            if
              outcome.Harness.detection.Detect.runs
              <> sequential.Harness.detection.Detect.runs
            then Fmt.epr "  WARNING: %s: parallel result differs!@." app.Registry.name;
            let t = summary.Failatom_campaign.Progress.wall_clock_s in
            totals.(i) <- totals.(i) +. t;
            t)
          campaign_jobs
      in
      Fmt.pr "%-14s %6d" app.Registry.name
        (1 + sequential.Harness.detection.Detect.injections);
      List.iter (fun t -> Fmt.pr "%9.3f" t) times;
      Fmt.pr "%9.2fx@." (List.hd times /. List.nth times (List.length times - 1)))
    Registry.all;
  Fmt.pr "%-14s %6s" "total" "";
  Array.iter (fun t -> Fmt.pr "%9.3f" t) totals;
  Fmt.pr "%9.2fx@." (totals.(0) /. totals.(Array.length totals - 1));
  Fmt.pr
    "  image reuse: one shared image per campaign (all domains) saves ~%.2fs of@."
    !reuse_saved;
  Fmt.pr "  per-run weave+compile per campaign column@."

(* ------------------------------------------------------------------ *)
(* Snapshot modes: eager vs copy-on-write detection cost               *)
(* ------------------------------------------------------------------ *)

let bench_short = Sys.getenv_opt "BENCH_SHORT" <> None

(* The quick subset keeps one cheap app per suite plus the large-graph
   apps whose detection cost the cow mode is built to flatten. *)
let snapshot_apps () =
  if bench_short then
    List.filter_map Registry.find [ "stdQ"; "LinkedList"; "RBTree" ]
  else Registry.all

let bench_json_file = "BENCH_detect.json"

(* Minimal JSON string escaping — app and flavor names are plain ASCII,
   but stay correct if that ever changes. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type snapshot_row = {
  row_app : Registry.t;
  row_flavor : Detect.flavor;
  row_runs : int;
  row_calls : int;  (* dynamic calls across all runs ~ snapshots taken *)
  row_eager_s : float;
  row_cow_s : float;
  row_image_s : float; (* one-time weave+compile, now paid once per detection *)
  row_identical : bool;
}

let section_snapshot () =
  Fmt.pr "@.== Snapshot modes: eager vs copy-on-write detection cost ==============@.";
  Fmt.pr "  (full detection phase per app; cow opens a write-barrier shadow per@.";
  Fmt.pr "   wrapped call and canonicalizes only on exceptional returns whose@.";
  Fmt.pr "   dirty set reaches the snapshot; marks verified identical to eager)@.";
  let apps = snapshot_apps () in
  let reps = if bench_short then 1 else 3 in
  let time_detect mode flavor program =
    let config = { Config.default with Config.snapshot_mode = mode } in
    let best = ref infinity and result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = Detect.run ~config ~flavor program in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  Fmt.pr "%-14s %6s %9s %10s %10s %9s %9s %10s@." "Application" "runs" "calls"
    "eager(s)" "cow(s)" "speedup" "img(ms)" "identical";
  let rows =
    List.map
      (fun (app : Registry.t) ->
        let program = Failatom_minilang.Minilang.parse app.Registry.source in
        let flavor = Harness.flavor_of_suite app.Registry.suite in
        let eager_r, eager_s = time_detect Config.Snapshot_eager flavor program in
        let cow_r, cow_s = time_detect Config.Snapshot_cow flavor program in
        let t0 = Unix.gettimeofday () in
        ignore (Detect.compile flavor program);
        let image_s = Unix.gettimeofday () -. t0 in
        let identical =
          eager_r.Detect.runs = cow_r.Detect.runs
          && eager_r.Detect.transparent = cow_r.Detect.transparent
        in
        if not identical then
          Fmt.epr "  WARNING: %s: cow marks differ from eager!@." app.Registry.name;
        let row =
          { row_app = app;
            row_flavor = flavor;
            row_runs = List.length eager_r.Detect.runs;
            row_calls =
              List.fold_left
                (fun acc (r : Marks.run_record) -> acc + r.Marks.calls)
                0 eager_r.Detect.runs;
            row_eager_s = eager_s;
            row_cow_s = cow_s;
            row_image_s = image_s;
            row_identical = identical }
        in
        Fmt.pr "%-14s %6d %9d %10.3f %10.3f %8.2fx %9.3f %10b@." app.Registry.name
          row.row_runs row.row_calls eager_s cow_s (eager_s /. cow_s)
          (image_s *. 1e3) identical;
        row)
      apps
  in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let eager_total = total (fun r -> r.row_eager_s) in
  let cow_total = total (fun r -> r.row_cow_s) in
  Fmt.pr "%-14s %6s %9s %10.3f %10.3f %8.2fx@." "total" "" "" eager_total cow_total
    (eager_total /. cow_total);
  (* Each detection now weaves+compiles once; before the staged split it
     paid the image cost once per run.  runs × image is therefore the
     wall-clock the shared image saves per detection phase. *)
  let reuse_saved =
    total (fun r -> float_of_int (r.row_runs - 1) *. r.row_image_s)
  in
  Fmt.pr "  image reuse: weave+compile once per detection saves ~%.2fs across the@."
    reuse_saved;
  Fmt.pr "  table (est. %.2fx on cow detection wall-clock)@."
    ((cow_total +. reuse_saved) /. cow_total);
  let oc = open_out bench_json_file in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"snapshot_modes\",\n";
  out "  \"short\": %b,\n" bench_short;
  out "  \"reps\": %d,\n" reps;
  out "  \"apps\": [\n";
  List.iteri
    (fun i row ->
      out
        "    {\"name\": \"%s\", \"flavor\": \"%s\", \"runs\": %d, \"calls\": %d, \
         \"eager_s\": %.6f, \"cow_s\": %.6f, \"speedup\": %.3f, \"image_s\": %.6f, \
         \"identical\": %b}%s\n"
        (json_escape row.row_app.Registry.name)
        (json_escape (Detect.flavor_name row.row_flavor))
        row.row_runs row.row_calls row.row_eager_s row.row_cow_s
        (row.row_eager_s /. row.row_cow_s)
        row.row_image_s row.row_identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n";
  out
    "  \"total\": {\"eager_s\": %.6f, \"cow_s\": %.6f, \"speedup\": %.3f, \
     \"image_reuse_saved_s\": %.6f},\n"
    eager_total cow_total
    (eager_total /. cow_total)
    reuse_saved;
  out "  \"all_identical\": %b\n" (List.for_all (fun r -> r.row_identical) rows);
  out "}\n";
  close_out oc;
  Fmt.pr "  machine-readable results written to %s@." bench_json_file

(* ------------------------------------------------------------------ *)
(* Interpreter throughput: the flat-bytecode engine                   *)
(* ------------------------------------------------------------------ *)

let interp_json_file = "BENCH_interp.json"

let interp_apps () =
  if bench_short then
    List.filter_map Registry.find [ "stdQ"; "LinkedList"; "RBTree" ]
  else Registry.all

type interp_row = {
  ir_app : Registry.t;
  ir_image_ms : float; (* one-time bytecode image build (best of 3) *)
  ir_rps : float; (* best round *)
  ir_stddev_pct : float; (* relative stddev of the rounds *)
  ir_baseline_rps : float option; (* committed baseline row, if any *)
}

let interp_baseline_file = "bench/baseline_interp_runs_per_sec.txt"

(* Reference throughput of the pre-bytecode interpreter (app name,
   runs/sec per line; see the file header for how it was measured).
   [Error] names why the table is unusable — the file is unreadable or a
   line does not parse — so the gate fails loudly instead of passing on
   a partial table. *)
let interp_baseline =
  lazy
    (match open_in interp_baseline_file with
     | exception Sys_error msg -> Error ("baseline file unreadable: " ^ msg)
     | ic ->
       let table = Hashtbl.create 16 in
       let bad = ref [] in
       (try
          while true do
            let line = input_line ic in
            if String.length line > 0 && line.[0] <> '#' then
              try Scanf.sscanf line "%s %f" (fun app rps -> Hashtbl.replace table app rps)
              with Scanf.Scan_failure _ | Failure _ | End_of_file -> bad := line :: !bad
          done
        with End_of_file -> ());
       close_in ic;
       (match List.rev !bad with
        | [] -> Ok table
        | lines ->
          Error
            (Printf.sprintf "unparsable baseline line(s) in %s: %s" interp_baseline_file
               (String.concat " | " (List.map (Printf.sprintf "%S") lines)))))

let interp_folded_file = "BENCH_interp.folded"

let section_interp () =
  Fmt.pr "@.== Interpreter: flat-bytecode engine throughput ======================@.";
  Fmt.pr "  (runs/sec of the plain workload from one shared image, fresh VM per@.";
  Fmt.pr "   run; best round is reported, stddev is across rounds)@.";
  let apps = interp_apps () in
  let rounds = if bench_short then 3 else 5 in
  let budget = if bench_short then 0.05 else 0.15 in
  let now () = Unix.gettimeofday () in
  let module C = Failatom_minilang.Compile in
  (* One probe: runs/sec over a ~[budget]-second window, one shared
     image, fresh VM per run (the structure every detection run has). *)
  let probe image =
    ignore (C.run_main (C.instantiate image));
    (* warmup *)
    let t0 = now () in
    let n = ref 0 in
    while now () -. t0 < budget do
      ignore (C.run_main (C.instantiate image));
      incr n
    done;
    float_of_int !n /. (now () -. t0)
  in
  let baseline = Lazy.force interp_baseline in
  Fmt.pr "%-14s %10s %12s %8s %9s@." "Application" "image(ms)" "runs/s" "stddev"
    "vs-base";
  let rows =
    List.map
      (fun (app : Registry.t) ->
        let program = Failatom_minilang.Minilang.parse app.Registry.source in
        let image = ref (C.image program) in
        let image_s = ref infinity in
        for _ = 1 to 3 do
          let t0 = now () in
          image := C.image program;
          let dt = now () -. t0 in
          if dt < !image_s then image_s := dt
        done;
        let samples = Array.init rounds (fun _ -> probe !image) in
        let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int rounds in
        let var =
          Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples
          /. float_of_int rounds
        in
        let rps = Array.fold_left Float.max 0.0 samples in
        let baseline_rps =
          match baseline with
          | Ok tbl -> Hashtbl.find_opt tbl app.Registry.name
          | Error _ -> None
        in
        let row =
          { ir_app = app;
            ir_image_ms = !image_s *. 1e3;
            ir_rps = rps;
            ir_stddev_pct = sqrt var /. mean *. 100.0;
            ir_baseline_rps = baseline_rps }
        in
        Fmt.pr "%-14s %10.3f %12.1f %7.1f%%" app.Registry.name row.ir_image_ms rps
          row.ir_stddev_pct;
        (match baseline_rps with
         | Some p -> Fmt.pr " %8.2fx@." (rps /. p)
         | None -> Fmt.pr " %9s@." "-");
        row)
      apps
  in
  (* The gate needs a usable baseline row for every measured app: a
     missing file, an unparsable line or an absent row fails it. *)
  let problems =
    match baseline with
    | Error why -> [ why ]
    | Ok _ ->
      List.filter_map
        (fun r ->
          match r.ir_baseline_rps with
          | Some _ -> None
          | None ->
            Some
              (Printf.sprintf "no baseline row for %s in %s" r.ir_app.Registry.name
                 interp_baseline_file))
        rows
  in
  let geomean_baseline =
    if problems <> [] then None
    else
      let sps = List.map (fun r -> r.ir_rps /. Option.get r.ir_baseline_rps) rows in
      Some
        (exp
           (List.fold_left (fun acc sp -> acc +. log sp) 0.0 sps
           /. float_of_int (List.length sps)))
  in
  Fmt.pr "%-14s %10s %12s %8s" "geomean" "" "" "";
  (match geomean_baseline with
   | Some g -> Fmt.pr " %8.2fx@." g
   | None -> Fmt.pr " %9s@." "-");
  List.iter (fun why -> Fmt.pr "  FAIL: %s@." why) problems;
  let pass = match geomean_baseline with Some g -> g >= 2.0 | None -> false in
  Fmt.pr "  geomean vs baseline >= 2.0x: %s@."
    (match geomean_baseline with
     | Some g -> Printf.sprintf "%b (%.2fx)" pass g
     | None -> "false (no usable baseline)");
  (* Folded-stack profile of one run per app: per-opcode dispatch counts
     plus the obs span timings, written next to the JSON for
     flamegraph.pl / speedscope. *)
  let module Exec = Failatom_runtime.Exec in
  let module Obs = Failatom_obs.Obs in
  Exec.reset_profile ();
  Exec.profiling := true;
  Obs.with_enabled true (fun () ->
      List.iter
        (fun (app : Registry.t) ->
          let program = Failatom_minilang.Minilang.parse app.Registry.source in
          let image = Obs.span "compile.image" (fun () -> C.image program) in
          Obs.span "vm.run" (fun () -> ignore (C.run_main (C.instantiate image))))
        apps);
  Exec.profiling := false;
  let oc = open_out interp_folded_file in
  output_string oc (Exec.folded_profile (Obs.snapshot ()));
  close_out oc;
  let oc = open_out interp_json_file in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"interp\",\n";
  out "  \"short\": %b,\n" bench_short;
  out "  \"rounds\": %d,\n" rounds;
  out "  \"budget_s\": %.3f,\n" budget;
  out "  \"apps\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"name\": \"%s\", \"image_ms\": %.3f, \"bytecode_runs_per_sec\": %.1f, \
         \"bytecode_stddev_pct\": %.2f"
        (json_escape r.ir_app.Registry.name)
        r.ir_image_ms r.ir_rps r.ir_stddev_pct;
      (match r.ir_baseline_rps with
       | Some p ->
         out ", \"baseline_runs_per_sec\": %.1f, \"vs_baseline_speedup\": %.3f" p
           (r.ir_rps /. p)
       | None -> ());
      out "}%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n";
  (match geomean_baseline with
   | Some g -> out "  \"geomean_vs_baseline_speedup\": %.3f,\n" g
   | None -> ());
  out "  \"baseline_problems\": [%s],\n"
    (String.concat ", " (List.map (fun p -> "\"" ^ json_escape p ^ "\"") problems));
  out "  \"pass\": %b,\n" pass;
  out "  \"folded_profile\": \"%s\"\n" (json_escape interp_folded_file);
  out "}\n";
  close_out oc;
  Fmt.pr "  machine-readable results written to %s (profile: %s)@."
    interp_json_file interp_folded_file

(* ------------------------------------------------------------------ *)
(* Observability overhead: metrics on vs off                           *)
(* ------------------------------------------------------------------ *)

let obs_json_file = "BENCH_obs.json"

type obs_row = {
  or_app : Registry.t;
  or_off_rps : float; (* interp runs/sec, metrics disabled *)
  or_on_rps : float; (* interp runs/sec, metrics enabled *)
  or_marks_identical : bool; (* detection runs identical on vs off *)
}

(* The obs layer must be free when disabled and near-free when enabled:
   the interpreter's hot loops touch only plain per-VM counters that are
   harvested once per run, and every Obs record op short-circuits on one
   atomic load.  This section proves both halves: marks stay bitwise
   identical with metrics enabled, and interpreter throughput regresses
   by less than 2%.  On/off passes alternate so clock drift and cache
   state bias neither side. *)
let section_obs_overhead () =
  Fmt.pr "@.== Observability overhead: metrics enabled vs disabled ================@.";
  Fmt.pr "  (plain-workload runs/sec per app, min-time over alternating batches;@.";
  Fmt.pr "   detection marks must be identical with metrics on and off)@.";
  let module Obs = Failatom_obs.Obs in
  let module C = Failatom_minilang.Compile in
  let apps = interp_apps () in
  let batches = if bench_short then 30 else 60 in
  let now () = Unix.gettimeofday () in
  let batch_time image n =
    let t0 = now () in
    for _ = 1 to n do
      ignore (C.run_main (C.instantiate image))
    done;
    now () -. t0
  in
  (* Noise-floor throughput: the minimum over many ~10ms batches.
     Scheduler preemption and clock jitter only ever add time, so the
     per-mode minimum converges on the true cost, where a throughput
     window would average the noise in.  Batches alternate modes. *)
  let measure image =
    let per_run = batch_time image 5 /. 5.0 in
    (* warmup + calibration *)
    let n = max 1 (int_of_float (0.01 /. per_run)) in
    let best_off = ref infinity and best_on = ref infinity in
    for _ = 1 to batches do
      best_off := Float.min !best_off (batch_time image n);
      best_on :=
        Float.min !best_on (Obs.with_enabled true (fun () -> batch_time image n))
    done;
    (float_of_int n /. !best_off, float_of_int n /. !best_on)
  in
  Fmt.pr "%-14s %11s %11s %11s %10s@." "Application" "off(r/s)" "on(r/s)"
    "regression" "identical";
  let rows =
    List.map
      (fun (app : Registry.t) ->
        let program = Failatom_minilang.Minilang.parse app.Registry.source in
        let flavor = Harness.flavor_of_suite app.Registry.suite in
        let image = C.image program in
        let off, on = measure image in
        let off_rps = ref off and on_rps = ref on in
        let d_off = Detect.run ~flavor program in
        let d_on = Obs.with_enabled true (fun () -> Detect.run ~flavor program) in
        let marks_identical =
          d_off.Detect.runs = d_on.Detect.runs
          && d_off.Detect.transparent = d_on.Detect.transparent
        in
        if not marks_identical then
          Fmt.epr "  WARNING: %s: marks differ with metrics enabled!@."
            app.Registry.name;
        let regression = (!off_rps -. !on_rps) /. !off_rps *. 100.0 in
        Fmt.pr "%-14s %11.1f %11.1f %10.2f%% %10b@." app.Registry.name !off_rps
          !on_rps regression marks_identical;
        { or_app = app;
          or_off_rps = !off_rps;
          or_on_rps = !on_rps;
          or_marks_identical = marks_identical })
      apps
  in
  let geomean_ratio =
    exp
      (List.fold_left (fun acc r -> acc +. log (r.or_on_rps /. r.or_off_rps)) 0.0 rows
      /. float_of_int (List.length rows))
  in
  let geomean_regression = (1.0 -. geomean_ratio) *. 100.0 in
  let all_identical = List.for_all (fun r -> r.or_marks_identical) rows in
  let pass = geomean_regression < 2.0 && all_identical in
  Fmt.pr "%-14s %11s %11s %10.2f%%@." "geomean" "" "" geomean_regression;
  Fmt.pr "  marks identical on every app: %b; overhead < 2%%: %b@." all_identical
    (geomean_regression < 2.0);
  let oc = open_out obs_json_file in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"obs_overhead\",\n";
  out "  \"short\": %b,\n" bench_short;
  out "  \"apps\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"name\": \"%s\", \"off_runs_per_sec\": %.1f, \"on_runs_per_sec\": \
         %.1f, \"regression_pct\": %.3f, \"marks_identical\": %b}%s\n"
        (json_escape r.or_app.Registry.name)
        r.or_off_rps r.or_on_rps
        ((r.or_off_rps -. r.or_on_rps) /. r.or_off_rps *. 100.0)
        r.or_marks_identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n";
  out "  \"geomean_regression_pct\": %.3f,\n" geomean_regression;
  out "  \"all_marks_identical\": %b,\n" all_identical;
  out "  \"pass\": %b\n" pass;
  out "}\n";
  close_out oc;
  Fmt.pr "  machine-readable results written to %s@." obs_json_file

(* ------------------------------------------------------------------ *)
(* Figure 5: masking overhead (Bechamel)                               *)
(* ------------------------------------------------------------------ *)

(* The paper's eager atomicity filter (Listing 2), local to the bench:
   Figure 5 measures the eager copy of the whole receiver graph on
   every call, which no wrapper of the library takes any more. *)
let eager_masking_filter () =
  let stack = ref [] in
  let pop () = match !stack with cp :: rest -> stack := rest; Some cp | [] -> None in
  { Vm.filt_name = "eager-masking";
    pre =
      (fun vm _meth recv args ->
        let roots = Mask.checkpoint_roots Config.default recv args in
        stack := Checkpoint.Eager.take vm.Vm.heap roots :: !stack;
        Vm.Proceed);
    post =
      (fun _vm _meth _recv _args result ->
        (match pop () with
         | Some cp when Result.is_error result -> Checkpoint.Eager.rollback cp
         | _ -> ());
        Vm.Pass);
    unwind = (fun _vm _meth -> ignore (pop ())) }

(* A VM whose receiver holds a chain of [size] nodes; the op does a
   small amount of work (the stand-in for the paper's ~0.5 us method)
   and mutates one field of the receiver.  The masked variant is the
   same method with an atomicity filter attached: [filter] builds one. *)
let make_fig5_vm ~size ~filter =
  let vm = Vm.create () in
  ignore (Vm.add_class vm "Node" ~fields:[ "v"; "next" ]);
  ignore (Vm.add_class vm "Holder" ~fields:[ "acc"; "data" ]);
  let chain =
    List.fold_left
      (fun next _ ->
        Value.Ref
          (Heap.alloc_object vm.Vm.heap ~cls:"Node"
             [ ("v", Value.Int 1); ("next", next) ]))
      Value.Null
      (List.init size Fun.id)
  in
  let holder =
    Heap.alloc_object vm.Vm.heap ~cls:"Holder" [ ("acc", Value.Int 0); ("data", chain) ]
  in
  let work vm this _args =
    (* ~50 integer operations, scaled from the paper's ~0.5 us body *)
    let acc = ref 0 in
    for i = 1 to 50 do
      acc := (!acc * 31) + i
    done;
    (match this with
     | Value.Ref id -> Heap.set_field vm.Vm.heap id "acc" (Value.Int !acc)
     | Value.Int _ | Value.Bool _ | Value.Str _ | Value.Null -> ());
    Value.Null
  in
  let wrapped = Vm.add_method vm "Holder" ~name:"wrappedOp" ~params:[] ~throws:[] work in
  ignore (Vm.add_method vm "Holder" ~name:"plainOp" ~params:[] ~throws:[] work);
  Option.iter (fun make -> Vm.attach_filter wrapped (make ())) filter;
  (vm, Value.Ref holder)

(* One measured iteration: 1000 calls, [per_mille] of them wrapped. *)
let fig5_case ~size ~filter ~per_mille =
  let vm, holder = make_fig5_vm ~size ~filter in
  fun () ->
    for i = 0 to 999 do
      let name = if i mod 1000 < per_mille then "wrappedOp" else "plainOp" in
      ignore (Vm.invoke vm holder name [])
    done

let sizes = [ 1; 4; 16; 64; 256; 1024 ]
let ratios = [ (1, "0.1%"); (10, "1%"); (100, "10%"); (1000, "100%") ]

let fig5_tests filter =
  let cell ~name fn = Test.make ~name (Staged.stage fn) in
  cell ~name:"baseline" (fig5_case ~size:64 ~filter:None ~per_mille:0)
  :: List.concat_map
       (fun size ->
         List.map
           (fun (per_mille, label) ->
             cell
               ~name:(Printf.sprintf "size=%04d/calls=%s" size label)
               (fig5_case ~size ~filter:(Some filter) ~per_mille))
           ratios)
       sizes

(* Runs a grouped Bechamel benchmark; returns test name -> ns/run. *)
let run_bechamel ~name tests =
  let grouped = Test.make_grouped ~name tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let table = Hashtbl.create 32 in
  Hashtbl.iter
    (fun test_name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> Hashtbl.replace table test_name ns
      | Some _ | None -> ())
    results;
  table

let print_overhead_table ~title ~group table =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=');
  match Hashtbl.find_opt table (group ^ "/baseline") with
  | None -> Fmt.pr "  (baseline measurement missing)@."
  | Some baseline ->
    Fmt.pr "baseline (no masking): %.1f ns/call@." (baseline /. 1000.);
    Fmt.pr "%-10s" "size";
    List.iter (fun (_, label) -> Fmt.pr "%12s" label) ratios;
    Fmt.pr "    (overhead factor vs baseline)@.";
    List.iter
      (fun size ->
        Fmt.pr "%-10d" size;
        List.iter
          (fun (_, label) ->
            let key = Printf.sprintf "%s/size=%04d/calls=%s" group size label in
            match Hashtbl.find_opt table key with
            | Some ns -> Fmt.pr "%11.2fx" (ns /. baseline)
            | None -> Fmt.pr "%12s" "-")
          ratios;
        Fmt.pr "@.")
      sizes

let section_fig5 () =
  Fmt.pr
    "@.== Figure 5: masking overhead vs checkpoint size and wrapped-call ratio ==@.";
  Fmt.pr "  (eager checkpointing, as in the paper; 1000 calls per sample)@.";
  let table = run_bechamel ~name:"fig5" (fig5_tests eager_masking_filter) in
  print_overhead_table ~title:"Figure 5: overhead factor (eager checkpointing)"
    ~group:"fig5" table

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let section_ablation () =
  Fmt.pr
    "@.== Ablation: copy-on-write checkpointing (paper 6.2 suggestion) ========@.";
  Fmt.pr "  (Mask.masking_filter, the production wrappers' checkpoint)@.";
  let table =
    run_bechamel ~name:"lazy" (fig5_tests (fun () -> Mask.masking_filter Config.default))
  in
  print_overhead_table
    ~title:"Copy-on-write checkpointing: overhead factor (one mutated object per call)"
    ~group:"lazy" table;
  Fmt.pr
    "@.== Ablation: static exception-freedom inference (paper 4.3 future work) ==@.";
  Fmt.pr "%-14s %12s %12s %10s@." "Application" "injections" "with-infer" "saved";
  List.iter
    (fun (app : Registry.t) ->
      let program = Failatom_minilang.Minilang.parse app.Registry.source in
      let base = Detect.run ~flavor:(Harness.flavor_of_suite app.Registry.suite) program in
      let config = { Config.default with Config.infer_exception_free = true } in
      let inferred =
        Detect.run ~config ~flavor:(Harness.flavor_of_suite app.Registry.suite) program
      in
      let saved =
        Report.pct
          (base.Detect.injections - inferred.Detect.injections)
          base.Detect.injections
      in
      Fmt.pr "%-14s %12d %12d %9.1f%%@." app.Registry.name base.Detect.injections
        inferred.Detect.injections saved)
    Registry.all;
  Fmt.pr "@.== Ablation: wrap-pure vs wrap-all masking policy ======================@.";
  Fmt.pr "%-14s %12s %12s@." "Application" "wrap-pure" "wrap-all";
  List.iter
    (fun (o : Harness.outcome) ->
      let count policy =
        let config = { Config.default with Config.wrap_policy = policy } in
        Method_id.Set.cardinal (Mask.targets config o.Harness.classification)
      in
      Fmt.pr "%-14s %12d %12d@." o.Harness.app.Registry.name (count Config.Wrap_pure)
        (count Config.Wrap_all_non_atomic))
    (Lazy.force sweep)

(* ------------------------------------------------------------------ *)
(* Exception-flow pruning: run census and off-vs-coalesce wall clock   *)
(* ------------------------------------------------------------------ *)

let prune_json_file = "BENCH_prune.json"

let prune_apps () =
  if bench_short then
    List.filter_map Registry.find [ "stdQ"; "LinkedList"; "RBTree" ]
  else Registry.all

type prune_row = {
  pr_app : Registry.t;
  pr_flavor : Detect.flavor;
  pr_points : int;  (* P: runs of the unpruned campaign minus the probe *)
  pr_groups : int;  (* representative runs coalesce executes *)
  pr_coalesced : int;  (* synthesized (not executed) runs *)
  pr_dropped : int;  (* generic injections --prune drop would remove *)
  pr_off_s : float;
  pr_co_s : float;
  pr_identical : bool;  (* coalesce runs == off runs, structurally *)
}

let section_prune () =
  Fmt.pr "@.== Exception-flow pruning: unpruned vs coalesced campaigns =============@.";
  Fmt.pr "  (coalesce executes one run per handler-blindness group and synthesizes@.";
  Fmt.pr "   the rest from a threshold-0 trace-run plan; its runs list is verified@.";
  Fmt.pr "   bitwise-identical to the unpruned campaign's.  dropped counts what@.";
  Fmt.pr "   --prune drop's may-raise filter would remove instead)@.";
  let apps = prune_apps () in
  let reps = if bench_short then 1 else 3 in
  let time_detect prune flavor program =
    let config = { Config.default with Config.prune } in
    let best = ref infinity and result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = Detect.run ~config ~flavor program in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  Fmt.pr "%-14s %7s %7s %10s %8s %9s %9s %8s %10s@." "Application" "points"
    "groups" "coalesced" "dropped" "off(s)" "co(s)" "speedup" "identical";
  let rows =
    List.map
      (fun (app : Registry.t) ->
        let program = Failatom_minilang.Minilang.parse app.Registry.source in
        let flavor = Harness.flavor_of_suite app.Registry.suite in
        let flow =
          Exnflow.analyze (Failatom_minilang.Compile.image program) program
        in
        (* plan census from a trace run, exactly as Detect builds it *)
        let config = Config.default in
        let analyzer = Analyzer.analyze config program in
        let compiled = Detect.compile flavor program in
        let _, extras =
          Detect.run_once_ext ~trace:true compiled config analyzer
            ~prepare:(fun _ -> ())
            ~threshold:0
        in
        let plan = Prune.build flow ~entries:extras.Detect.entries in
        let dropped =
          let filtered = Analyzer.analyze ~flow config program in
          List.fold_left
            (fun acc id ->
              acc
              + List.length (Analyzer.injectable_for analyzer id)
              - List.length (Analyzer.injectable_for filtered id))
            0 (Analyzer.method_ids analyzer)
        in
        let off_r, off_s = time_detect Config.Prune_off flavor program in
        let co_r, co_s = time_detect Config.Prune_coalesce flavor program in
        let identical =
          off_r.Detect.runs = co_r.Detect.runs
          && off_r.Detect.transparent = co_r.Detect.transparent
        in
        if not identical then
          Fmt.epr "  WARNING: %s: coalesced runs differ from unpruned!@."
            app.Registry.name;
        let row =
          { pr_app = app;
            pr_flavor = flavor;
            pr_points = plan.Prune.total_points;
            pr_groups = Prune.group_count plan;
            pr_coalesced = Prune.coalesced_away plan;
            pr_dropped = dropped;
            pr_off_s = off_s;
            pr_co_s = co_s;
            pr_identical = identical }
        in
        Fmt.pr "%-14s %7d %7d %10d %8d %9.3f %9.3f %7.2fx %10b@."
          app.Registry.name row.pr_points row.pr_groups row.pr_coalesced
          row.pr_dropped off_s co_s (off_s /. co_s) identical;
        row)
      apps
  in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let off_total = total (fun r -> r.pr_off_s) in
  let co_total = total (fun r -> r.pr_co_s) in
  let geomean =
    exp
      (total (fun r -> log (r.pr_off_s /. r.pr_co_s))
      /. float_of_int (List.length rows))
  in
  Fmt.pr "%-14s %7s %7s %10s %8s %9.3f %9.3f %7.2fx@." "total" "" "" "" ""
    off_total co_total (off_total /. co_total);
  let eliminated_pct r =
    100.0 *. float_of_int r.pr_coalesced /. float_of_int (r.pr_points + 1)
  in
  let all_identical = List.for_all (fun r -> r.pr_identical) rows in
  (* The two committed gates: RBTree must shed >= 30% of its runs, and
     coalescing must be a real wall-clock win across the table. *)
  let pass_rbtree =
    match List.find_opt (fun r -> r.pr_app.Registry.name = "RBTree") rows with
    | None -> true (* subset without RBTree: nothing to gate *)
    | Some r -> eliminated_pct r >= 30.0
  in
  let pass_speedup = geomean >= 1.3 in
  Fmt.pr "  runs eliminated: RBTree %s; geomean speedup %.2fx (>= 1.3x: %b); \
          all identical: %b@."
    (match List.find_opt (fun r -> r.pr_app.Registry.name = "RBTree") rows with
     | Some r -> Printf.sprintf "%.1f%% (>= 30%%: %b)" (eliminated_pct r) pass_rbtree
     | None -> "not measured")
    geomean pass_speedup all_identical;
  let oc = open_out prune_json_file in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"exnflow_prune\",\n";
  out "  \"short\": %b,\n" bench_short;
  out "  \"reps\": %d,\n" reps;
  out "  \"apps\": [\n";
  List.iteri
    (fun i row ->
      out
        "    {\"name\": \"%s\", \"flavor\": \"%s\", \"points\": %d, \
         \"groups\": %d, \"coalesced\": %d, \"dropped\": %d, \
         \"eliminated_pct\": %.1f, \"off_s\": %.6f, \"coalesce_s\": %.6f, \
         \"speedup\": %.3f, \"identical\": %b}%s\n"
        (json_escape row.pr_app.Registry.name)
        (json_escape (Detect.flavor_name row.pr_flavor))
        row.pr_points row.pr_groups row.pr_coalesced row.pr_dropped
        (eliminated_pct row) row.pr_off_s row.pr_co_s
        (row.pr_off_s /. row.pr_co_s)
        row.pr_identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n";
  out
    "  \"total\": {\"off_s\": %.6f, \"coalesce_s\": %.6f, \"speedup\": %.3f, \
     \"geomean_speedup\": %.3f},\n"
    off_total co_total (off_total /. co_total) geomean;
  out "  \"all_identical\": %b,\n" all_identical;
  out "  \"pass_rbtree_elimination\": %b,\n" pass_rbtree;
  out "  \"pass_geomean_speedup\": %b,\n" pass_speedup;
  out "  \"pass\": %b\n" (all_identical && pass_rbtree && pass_speedup);
  out "}\n";
  close_out oc;
  Fmt.pr "  machine-readable results written to %s@." prune_json_file

(* ------------------------------------------------------------------ *)
(* Concurrent apps: the schedule axis and schedules-to-first-violation *)
(* ------------------------------------------------------------------ *)

let concurrent_json_file = "BENCH_concurrent.json"

(* One seeded interleaving violation per concurrent app: a read-only
   probe whose non-atomicity injection alone cannot expose. *)
let seeded_probes =
  [ ("StripedMap", "snapshotTotal");
    ("BoundedBuffer", "audit");
    ("WorkQueue", "progress") ]

(* The default sweep measured here and reported in EXPERIMENTS.md: coop
   plus three slice seeds (the --schedules 4 expansion). *)
let concurrent_sweep = [ "coop"; "slice:1"; "slice:2"; "slice:3" ]

type concurrent_row = {
  cr_app : Registry.t;
  cr_probe : Method_id.t;
  cr_coop_s : float;
  cr_coop_injections : int;
  cr_sweep_s : float;
  cr_sweep_injections : int;
  cr_first_violation : int option;
      (* smallest sweep prefix length whose detection flips the seeded
         probe non-atomic; None if even the full sweep misses it *)
  cr_transparent : bool;  (* across both the coop and the sweep run *)
}

let section_concurrent () =
  Fmt.pr "@.== Concurrent apps: schedule exploration cost and yield ================@.";
  Fmt.pr "  (each app carries one seeded violation in a read-only probe method;@.";
  Fmt.pr "   first-violation is the smallest prefix of the sweep %s@."
    (String.concat "," concurrent_sweep);
  Fmt.pr "   whose detection marks the probe non-atomic — 1 would mean the@.";
  Fmt.pr "   schedule axis was unnecessary)@.";
  let reps = if bench_short then 1 else 3 in
  let time_detect specs flavor program =
    let config = { Config.default with Config.schedules = specs } in
    let best = ref infinity and result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = Detect.run ~config ~flavor program in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let non_atomic d meth =
    match Classify.verdict (Classify.classify d) meth with
    | Some Classify.Pure_non_atomic | Some Classify.Conditional_non_atomic -> true
    | Some Classify.Atomic | None -> false
  in
  let prefix k = List.filteri (fun i _ -> i < k) concurrent_sweep in
  Fmt.pr "%-14s %-14s %9s %8s %9s %8s %7s %12s@." "Application" "probe"
    "coop(s)" "inj" "sweep(s)" "inj" "first" "transparent";
  let rows =
    List.map
      (fun (name, probe_name) ->
        let app = Option.get (Registry.find name) in
        let probe = Method_id.make name probe_name in
        let program = Failatom_minilang.Minilang.parse app.Registry.source in
        let flavor = Harness.flavor_of_suite app.Registry.suite in
        let coop_r, coop_s = time_detect [ "coop" ] flavor program in
        let sweep_r, sweep_s = time_detect concurrent_sweep flavor program in
        (* the sweep endpoints are already measured; probe the interior
           prefixes once each for the first-violation count *)
        let first_violation =
          if non_atomic coop_r probe then Some 1
          else if not (non_atomic sweep_r probe) then None
          else
            let rec search k =
              if k >= List.length concurrent_sweep then
                Some (List.length concurrent_sweep)
              else if
                non_atomic (fst (time_detect (prefix k) flavor program)) probe
              then Some k
              else search (k + 1)
            in
            search 2
        in
        let row =
          { cr_app = app;
            cr_probe = probe;
            cr_coop_s = coop_s;
            cr_coop_injections = coop_r.Detect.injections;
            cr_sweep_s = sweep_s;
            cr_sweep_injections = sweep_r.Detect.injections;
            cr_first_violation = first_violation;
            cr_transparent =
              coop_r.Detect.transparent && sweep_r.Detect.transparent }
        in
        Fmt.pr "%-14s %-14s %9.3f %8d %9.3f %8d %7s %12b@." name probe_name
          coop_s coop_r.Detect.injections sweep_s
          sweep_r.Detect.injections
          (match first_violation with Some k -> string_of_int k | None -> "-")
          row.cr_transparent;
        row)
      seeded_probes
  in
  (* Gates: the schedule axis must be both necessary (no probe flips
     under coop alone) and sufficient (every probe flips somewhere in
     the sweep), with transparency holding throughout. *)
  let pass_needed =
    List.for_all (fun r -> r.cr_first_violation <> Some 1) rows
  in
  let pass_detected =
    List.for_all (fun r -> r.cr_first_violation <> None) rows
  in
  let pass_transparent = List.for_all (fun r -> r.cr_transparent) rows in
  let pass = pass_needed && pass_detected && pass_transparent in
  Fmt.pr
    "  schedule axis necessary: %b; all seeded violations found: %b; \
     transparent: %b@."
    pass_needed pass_detected pass_transparent;
  let oc = open_out concurrent_json_file in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"concurrent_schedules\",\n";
  out "  \"short\": %b,\n" bench_short;
  out "  \"reps\": %d,\n" reps;
  out "  \"sweep\": [%s],\n"
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "\"%s\"" (json_escape s)) concurrent_sweep));
  out "  \"apps\": [\n";
  List.iteri
    (fun i row ->
      out
        "    {\"name\": \"%s\", \"probe\": \"%s\", \"coop_s\": %.6f, \
         \"coop_injections\": %d, \"sweep_s\": %.6f, \"sweep_injections\": %d, \
         \"first_violation_schedules\": %s, \"transparent\": %b}%s\n"
        (json_escape row.cr_app.Registry.name)
        (json_escape (Method_id.to_string row.cr_probe))
        row.cr_coop_s row.cr_coop_injections row.cr_sweep_s
        row.cr_sweep_injections
        (match row.cr_first_violation with
         | Some k -> string_of_int k
         | None -> "null")
        row.cr_transparent
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n";
  out "  \"pass_schedule_axis_necessary\": %b,\n" pass_needed;
  out "  \"pass_all_violations_detected\": %b,\n" pass_detected;
  out "  \"pass_transparent\": %b,\n" pass_transparent;
  out "  \"pass\": %b\n" pass;
  out "}\n";
  close_out oc;
  Fmt.pr "  machine-readable results written to %s@." concurrent_json_file

(* ------------------------------------------------------------------ *)
(* Server: cold vs warm submission latency and client throughput       *)
(* ------------------------------------------------------------------ *)

module Server = Failatom_server.Server
module Client = Failatom_server.Client
module Protocol = Failatom_server.Protocol

let server_json_file = "BENCH_server.json"

(* One full client round trip: connect, greeting, submit, watch to the
   terminal event, close.  Cold and warm submissions are timed through
   the identical path, so the ratio isolates what the daemon's
   content-addressed cache saves (compilation + every detection run). *)
let submit_round_trip ~socket_path request =
  Client.with_conn ~socket_path (fun conn ->
      match Client.submit_wait conn request with
      | Client.Completed (result, cached) -> (result, cached)
      | Client.Job_failed msg -> failwith ("bench job failed: " ^ msg)
      | Client.Job_cancelled | Client.Job_timed_out ->
        failwith "bench job did not complete")

let section_server () =
  Fmt.pr "@.== Server: cold vs warm submission latency ============================@.";
  Fmt.pr "  (failatom serve daemon on a Unix socket; a warm submission hits the@.";
  Fmt.pr "   content-addressed result cache and re-runs nothing; latencies are@.";
  Fmt.pr "   full client round trips including connect)@.";
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fa_bench_%d.sock" (Unix.getpid ()))
  in
  let server =
    Server.start { (Server.default_config ~socket_path) with Server.workers = 2 }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Server.wait server;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () ->
      let request = Protocol.default_request Protocol.Detect (Protocol.App "RBTree") in
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let (cold_result, cold_cached), cold_s =
        time (fun () -> submit_round_trip ~socket_path request)
      in
      assert (not cold_cached);
      let warm_iters = if bench_short then 10 else 30 in
      let warm_s = ref infinity in
      for _ = 1 to warm_iters do
        let (result, cached), t = time (fun () -> submit_round_trip ~socket_path request) in
        if not cached then failwith "warm submission missed the cache";
        if result.Protocol.r_log <> cold_result.Protocol.r_log then
          failwith "warm result differs from cold";
        if t < !warm_s then warm_s := t
      done;
      let speedup = cold_s /. !warm_s in
      let pass = speedup >= 5.0 in
      Fmt.pr "%-28s %10.2f ms@." "cold (compile + 700 runs)" (cold_s *. 1e3);
      Fmt.pr "%-28s %10.2f ms   (best of %d)@." "warm (cache hit)" (!warm_s *. 1e3)
        warm_iters;
      Fmt.pr "%-28s %10.1fx   (target >= 5x: %s)@." "speedup" speedup
        (if pass then "pass" else "FAIL");
      (* throughput: N concurrent clients hammering the warm path *)
      Fmt.pr "@.== Server: warm throughput vs concurrent clients ======================@.";
      let jobs_per_client = if bench_short then 20 else 100 in
      let throughput =
        List.map
          (fun clients ->
            let (), wall_s =
              time (fun () ->
                  let threads =
                    List.init clients (fun _ ->
                        Thread.create
                          (fun () ->
                            for _ = 1 to jobs_per_client do
                              ignore (submit_round_trip ~socket_path request)
                            done)
                          ())
                  in
                  List.iter Thread.join threads)
            in
            let rate = float_of_int (clients * jobs_per_client) /. wall_s in
            Fmt.pr "%4d client(s): %8.0f jobs/s  (%d jobs in %.3fs)@." clients rate
              (clients * jobs_per_client) wall_s;
            (clients, rate))
          [ 1; 4; 16 ]
      in
      let oc = open_out server_json_file in
      Printf.fprintf oc
        "{\"schema\": \"failatom.bench.server/1\",\n\
        \ \"app\": \"RBTree\",\n\
        \ \"cold_ms\": %.3f,\n\
        \ \"warm_ms\": %.3f,\n\
        \ \"speedup\": %.2f,\n\
        \ \"pass\": %b,\n\
        \ \"throughput\": [%s]}\n"
        (cold_s *. 1e3)
        (!warm_s *. 1e3)
        speedup pass
        (String.concat ", "
           (List.map
              (fun (clients, rate) ->
                Printf.sprintf "{\"clients\": %d, \"jobs_per_sec\": %.1f}" clients rate)
              throughput));
      close_out oc;
      Fmt.pr "  machine-readable results written to %s@." server_json_file)

(* ------------------------------------------------------------------ *)
(* Cluster: warm throughput scaling, shards x clients                  *)
(* ------------------------------------------------------------------ *)

module Store = Failatom_cluster.Store
module Shard_map = Failatom_cluster.Shard_map
module Supervisor = Failatom_cluster.Supervisor
module Json = Failatom_core.Json

(* The workload is a mix of apps, not one program: digest affinity
   sends each program to one home shard, so a single-app load would
   exercise exactly one shard regardless of fleet size. *)
let cluster_apps =
  [ "RBTree"; "stdQ"; "HashedMap"; "LinkedList"; "Dynarray"; "adaptorChain";
    "CircularList"; "LLMap" ]

let cluster_requests =
  lazy
    (Array.of_list
       (List.map
          (fun name ->
            { (Protocol.default_request Protocol.Detect (Protocol.App name)) with
              Protocol.infer = true })
          cluster_apps))

module Net = Failatom_server.Net

(* Pre-rendered submit frames: the load generators write these bytes
   verbatim and never JSON-parse the (large) replies, so client-side
   decode cost cannot mask the fleet's serving capacity. *)
let submit_lines =
  lazy
    (Array.map
       (fun req ->
         Json.to_string (Protocol.request_to_json (Protocol.Submit req)))
       (Lazy.force cluster_requests))

let reply_head = "{\"ok\":true,\"job\":\""
let done_mark = "\",\"state\":\"done\""

(* The hidden [cluster-worker] mode, run as a separate *process* per
   slice of the client population: neither the bench runtime's thread
   lock nor the fleet under test ever serialises the load generators.
   Each of [conns] threads opens a raw socket and pumps [jobs] warm
   submissions round-robin over the app mix.  Replies are checked
   byte-wise: the head yields the job id (whose [s<i>-] prefix
   attributes the job to a shard) and the state, and a warm done
   reply's tail — everything after the id — must be byte-identical to
   the first tail seen for that app, which checks the cluster-wide
   determinism guarantee at full speed.  One summary line goes to
   stdout for the parent. *)
let run_cluster_worker ~socket_path ~conns ~jobs ~offset =
  let lines = Lazy.force submit_lines in
  let napps = Array.length lines in
  let nshards = 16 in
  let per_shard = Array.make nshards 0 in
  let errors = ref 0 in
  let tally = Mutex.create () in
  let expected = Array.make napps None in
  let head_len = String.length reply_head in
  let worker c () =
    let mine = Array.make nshards 0 in
    let mistakes = ref 0 in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    let r = Net.reader fd in
    ignore (Net.read_line r);
    (* greeting *)
    for j = 0 to jobs - 1 do
      let a = (offset + c + j) mod napps in
      Net.write_line fd lines.(a);
      match Net.read_line r with
      | None -> incr mistakes
      | Some reply ->
        if
          String.length reply <= head_len
          || not (String.equal (String.sub reply 0 head_len) reply_head)
        then incr mistakes
        else begin
          let id_end =
            match String.index_from_opt reply head_len '"' with
            | Some i -> i
            | None -> head_len
          in
          let id = String.sub reply head_len (id_end - head_len) in
          (match Shard_map.parse_job_id id with
           | Some (s, _) when s < nshards -> mine.(s) <- mine.(s) + 1
           | _ -> mine.(0) <- mine.(0) + 1);
          let tail = String.sub reply id_end (String.length reply - id_end) in
          let dlen = String.length done_mark in
          if
            String.length tail >= dlen
            && String.equal (String.sub tail 0 dlen) done_mark
          then begin
            Mutex.lock tally;
            (match expected.(a) with
             | None -> expected.(a) <- Some tail
             | Some t -> if not (String.equal t tail) then incr mistakes);
            Mutex.unlock tally
          end
          else begin
            (* cold job (first touch after a steal, say): drain its
               watch stream to the terminal frame *)
            Net.write_line fd
              (Json.to_string (Protocol.request_to_json (Protocol.Watch id)));
            let rec drain () =
              match Net.read_line r with
              | None -> incr mistakes
              | Some frame -> (
                match Json.str_member "event" (Json.of_string frame) with
                | Some ("done" | "error" | "cancelled" | "timeout") -> ()
                | Some _ | None -> drain ()
                | exception Json.Parse_error _ -> incr mistakes)
            in
            drain ()
          end
        end
    done;
    Net.close_noerr fd;
    Mutex.lock tally;
    Array.iteri (fun i n -> per_shard.(i) <- per_shard.(i) + n) mine;
    errors := !errors + !mistakes;
    Mutex.unlock tally
  in
  let threads = List.init conns (fun c -> Thread.create (worker c) ()) in
  List.iter Thread.join threads;
  Printf.printf "per_shard=%s errors=%d\n"
    (String.concat "," (Array.to_list (Array.map string_of_int per_shard)))
    !errors

(* Spawns [clients] connections split over up to 8 worker processes
   and returns (jobs/s, per-shard counts). *)
let measure_workers ~socket_path ~clients ~jobs_per_client ~shards =
  let self = Sys.executable_name in
  let procs = min clients 8 in
  let conns = max 1 (clients / procs) in
  let spawn p =
    let rd, wr = Unix.pipe () in
    let argv =
      [| self; "cluster-worker"; socket_path; string_of_int conns;
         string_of_int jobs_per_client; string_of_int (p * conns) |]
    in
    let pid = Unix.create_process self argv Unix.stdin wr Unix.stderr in
    Unix.close wr;
    (pid, rd)
  in
  let t0 = Unix.gettimeofday () in
  let workers = List.init procs spawn in
  let outputs =
    List.map
      (fun (pid, rd) ->
        let ic = Unix.in_channel_of_descr rd in
        let line = try input_line ic with End_of_file -> "" in
        close_in ic;
        ignore (Unix.waitpid [] pid);
        line)
      workers
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let per_shard = Array.make (max shards 1) 0 in
  let errors = ref 0 in
  List.iter
    (fun line ->
      try
        Scanf.sscanf line "per_shard=%s@ errors=%d" (fun counts e ->
            List.iteri
              (fun i c ->
                let n = int_of_string c in
                if i < Array.length per_shard then
                  per_shard.(i) <- per_shard.(i) + n
                else per_shard.(0) <- per_shard.(0) + n)
              (String.split_on_char ',' counts);
            errors := !errors + e)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> incr errors)
    outputs;
  if !errors > 0 then
    failwith
      (Printf.sprintf "cluster bench: %d reply error(s)/byte mismatch(es)"
         !errors);
  (float_of_int (procs * conns * jobs_per_client) /. wall_s, per_shard)

(* Warm every home shard (and the store).  Two rounds: the first
   computes each app (cached=false), the second pins every warm reply
   to its stable cached=true form so the workers' byte checks hold. *)
let cluster_warm ~socket_path =
  for _round = 1 to 2 do
    Array.iter
      (fun req ->
        Client.with_conn ~retries:10 ~socket_path (fun conn ->
            match Client.submit_wait conn req with
            | Client.Completed _ -> ()
            | _ -> failwith "cluster warm-up job did not complete"))
      (Lazy.force cluster_requests)
  done

let failatom_exe () =
  match Sys.getenv_opt "FAILATOM_EXE" with
  | Some exe when Sys.file_exists exe -> Some exe
  | _ ->
    let candidate =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." (Filename.concat "bin" "failatom.exe"))
    in
    if Sys.file_exists candidate then Some candidate else None

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

(* Folds the cluster results into BENCH_server.json next to the
   single-server figures (which [section_server] writes first). *)
let write_cluster_json ~baseline_16 ~results ~ratio ~pass =
  let existing =
    if Sys.file_exists server_json_file then begin
      let ic = open_in_bin server_json_file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.of_string s with
      | Json.Obj fields -> List.remove_assoc "cluster" fields
      | _ | (exception Json.Parse_error _) -> []
    end
    else []
  in
  let grid =
    Json.List
      (List.map
         (fun (shards, clients, rate, per_shard) ->
           Json.Obj
             [ ("shards", Json.Int shards);
               ("clients", Json.Int clients);
               ("jobs_per_sec", Json.Float (Float.round (rate *. 10.) /. 10.));
               ( "per_shard_jobs",
                 Json.List
                   (Array.to_list (Array.map (fun n -> Json.Int n) per_shard)) ) ])
         results)
  in
  let cluster =
    Json.Obj
      [ ("apps", Json.List (List.map (fun a -> Json.Str a) cluster_apps));
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("single_16_jobs_per_sec", Json.Float (Float.round (baseline_16 *. 10.) /. 10.));
        ("grid", grid);
        ("ratio_4x64_vs_single16", Json.Float (Float.round (ratio *. 100.) /. 100.));
        ("pass_3x", Json.Bool pass) ]
  in
  let oc = open_out server_json_file in
  output_string oc (Json.to_string (Json.Obj (existing @ [ ("cluster", cluster) ])));
  output_char oc '\n';
  close_out oc

(* The fleet under test runs as real child processes — [failatom
   serve] for the single-server baseline, [failatom cluster] for the
   grid — so the bench process itself contributes nothing to either
   side of the comparison. *)
let with_child_fleet ~argv ~socket_path f =
  let exe = argv.(0) in
  let pid = Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr in
  Fun.protect
    ~finally:(fun () ->
      (try Client.with_conn ~retries:3 ~socket_path Client.shutdown
       with _ -> (
         try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () ->
      (* wait until the fleet greets on the public socket *)
      Client.with_conn ~retries:30 ~socket_path (fun _ -> ());
      f ())

let section_cluster () =
  Fmt.pr "@.== Cluster: warm throughput, shards x clients ========================@.";
  Fmt.pr "  (real child processes throughout: [failatom serve] as the single-@.";
  Fmt.pr "   server baseline, [failatom cluster] fleets for the grid, raw-socket@.";
  Fmt.pr "   load generators split over worker processes; every warm reply is@.";
  Fmt.pr "   byte-checked against the first one seen for its app)@.";
  match failatom_exe () with
  | None ->
    Fmt.pr "  SKIPPED: failatom binary not found (set FAILATOM_EXE)@."
  | Some exe ->
    let jobs_per_client = if bench_short then 10 else 40 in
    let shard_counts = if bench_short then [ 2 ] else [ 1; 2; 4 ] in
    let client_counts = if bench_short then [ 1; 8 ] else [ 1; 4; 16; 64 ] in
    let tmp name =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fa_bench_%s_%d" name (Unix.getpid ()))
    in
    (* baseline: one [failatom serve] daemon, 16 clients, same workload *)
    let baseline_16 =
      let socket_path = tmp "base.sock" in
      with_child_fleet
        ~argv:[| exe; "serve"; "--socket"; socket_path; "--workers"; "2" |]
        ~socket_path
        (fun () ->
          cluster_warm ~socket_path;
          fst
            (measure_workers ~socket_path ~clients:16 ~jobs_per_client
               ~shards:1))
    in
    Fmt.pr "%-24s %8.0f jobs/s@." "single server, 16 clients" baseline_16;
    let results = ref [] in
    List.iter
      (fun shards ->
        let base = tmp (Printf.sprintf "c%d.sock" shards) in
        let store_dir = base ^ ".store" in
        with_child_fleet
          ~argv:
            [| exe; "cluster"; "--socket"; base;
               "--shards"; string_of_int shards; "--workers"; "2";
               "--store"; store_dir |]
          ~socket_path:base
          (fun () ->
            cluster_warm ~socket_path:base;
            List.iter
              (fun clients ->
                let rate, per_shard =
                  measure_workers ~socket_path:base ~clients ~jobs_per_client
                    ~shards
                in
                Fmt.pr
                  "%d shard(s), %2d client(s): %8.0f jobs/s  (per shard: %s)@."
                  shards clients rate
                  (String.concat " "
                     (Array.to_list (Array.map string_of_int per_shard)));
                results := (shards, clients, rate, per_shard) :: !results)
              client_counts);
        rm_rf store_dir)
      shard_counts;
    let results = List.rev !results in
    let rate_of shards clients =
      List.find_map
        (fun (s, c, r, _) -> if s = shards && c = clients then Some r else None)
        results
    in
    let top =
      match rate_of 4 64 with
      | Some r -> r
      | None -> (
        (* BENCH_SHORT: fall back to the largest measured cell *)
        match List.rev results with
        | (_, _, r, _) :: _ -> r
        | [] -> 0.)
    in
    let ratio = if baseline_16 > 0. then top /. baseline_16 else 0. in
    let pass = ratio >= 3.0 in
    Fmt.pr "%-24s %10.2fx   (target >= 3x vs single-16: %s)@." "cluster scaling"
      ratio
      (if pass then "pass" else "FAIL");
    write_cluster_json ~baseline_16 ~results ~ratio ~pass;
    Fmt.pr "  machine-readable results merged into %s@." server_json_file

(* ------------------------------------------------------------------ *)
(* Production masking: checkpoint vs copy-on-write rollback            *)
(* ------------------------------------------------------------------ *)

let mask_apps () =
  if bench_short then
    List.filter_map Registry.find [ "stdQ"; "LinkedList"; "RBTree" ]
  else Registry.all

let section_mask () =
  let module Plan = Failatom_prod.Plan in
  let module Perturb = Failatom_prod.Perturb in
  let module Scorecard = Failatom_prod.Scorecard in
  let module Produce = Failatom_prod.Produce in
  Fmt.pr "@.== Production masking: wrapper entry and rollback cost ==================@.";
  Fmt.pr "  (armed production runs with a rate-1000 at-exit canary: every wrapped@.";
  Fmt.pr "   call is perturbed, rolled back and retried; costs come from the@.";
  Fmt.pr "   scorecard timings, best of %d rounds)@." (if bench_short then 2 else 3);
  let rounds = if bench_short then 2 else 3 in
  let times = if bench_short then 1 else 2 in
  let perturb =
    { Produce.seed = 7;
      rate_per_mille = 1000;
      max_fires = None;
      point = Perturb.At_exit;
      fallback_exceptions = [] }
  in
  let outcome_of (app : Registry.t) =
    match
      List.find_opt
        (fun (o : Harness.outcome) -> o.Harness.app.Registry.name = app.Registry.name)
        (Lazy.force sweep)
    with
    | Some o -> o
    | None -> Harness.detect_app app
  in
  Fmt.pr "%-14s %8s %7s %6s %11s %11s@." "Application" "targets" "calls" "hits" "wrap"
    "rollback";
  List.iter
    (fun (app : Registry.t) ->
      let o = outcome_of app in
      let program = Failatom_minilang.Minilang.parse app.Registry.source in
      let flavor = Harness.flavor_of_suite app.Registry.suite in
      let plan =
        Plan.build ~config:Config.default ~flavor ~program
          ~detection:o.Harness.detection ~classification:o.Harness.classification
      in
      let targets = Method_id.Set.cardinal (Plan.target_set plan) in
      if targets = 0 then
        Fmt.pr "%-14s %8d   (no wrapped methods; skipped)@." app.Registry.name targets
      else begin
        (* per-call wrap and per-rollback cost of one produce set *)
        let costs (sc : Scorecard.t) =
          let wrap, rb =
            List.fold_left
              (fun (w, b) (tr : Scorecard.timing_row) ->
                (w + tr.Scorecard.t_wrap_ns, b + tr.Scorecard.t_rollback_ns))
              (0, 0) sc.Scorecard.timings
          in
          let per total count =
            if count = 0 then 0.0 else float_of_int total /. float_of_int count
          in
          (per wrap (Scorecard.calls sc), per rb (Scorecard.hits sc))
        in
        let best = ref (infinity, infinity) and last = ref None in
        for _ = 1 to rounds do
          match Produce.run ~perturb ~times ~plan program with
          | Error msg -> Fmt.failwith "mask bench: %s: %s" app.Registry.name msg
          | Ok r ->
            let ((_, rb) as c) = costs r.Produce.scorecard in
            if rb < snd !best then best := c;
            last := Some r.Produce.scorecard
        done;
        let sc = Option.get !last and wrap, rb = !best in
        Fmt.pr "%-14s %8d %7d %6d %10.0fn %10.0fn@." app.Registry.name targets
          (Scorecard.calls sc) (Scorecard.hits sc) wrap rb
      end)
    (mask_apps ())

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let sections =
  [ ("table1", section_table1);
    ("fig2", section_fig2);
    ("fig3", section_fig3);
    ("fig4", section_fig4);
    ("case-study", section_case_study);
    ("campaign", section_campaign);
    ("snapshot", section_snapshot);
    ("interp", section_interp);
    ("obs-overhead", section_obs_overhead);
    ("fig5", section_fig5);
    ("ablation", section_ablation);
    ("prune", section_prune);
    ("mask", section_mask);
    ("concurrent", section_concurrent);
    ("server", section_server);
    ("cluster", section_cluster) ]

let () =
  (* hidden re-invocation as a cluster load-generator process *)
  match Array.to_list Sys.argv with
  | [ _; "cluster-worker"; socket; conns; jobs; offset ] ->
    run_cluster_worker ~socket_path:socket ~conns:(int_of_string conns)
      ~jobs:(int_of_string jobs) ~offset:(int_of_string offset)
  | _ ->
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst sections
    | args -> args
  in
  Fmt.pr "failatom benchmark harness — reproducing the DSN'03 evaluation@.";
  Fmt.pr "running detection sweep over %d applications...@." (List.length Registry.all);
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Fmt.epr "unknown section %S (known: %s)@." name
          (String.concat ", " (List.map fst sections));
        exit 1)
    requested
