(* produce-canary: production masking with the canary channel on.
   Set-up detects and builds a [Plan] for six apps; the timed part runs
   sessions of [Produce.run ~times:K] (one image per session, K armed
   runs) with the default rollback engine and a seeded at-exit canary
   at 100 per mille.  The time goes to the armed wrappers' entry and
   rollback work: no detection loop, no wire. *)

open Failatom_core
open Failatom_apps
open Common
module Prod = Failatom_prod

let apps = [ "RBTree"; "RBMap"; "HashedMap"; "CircularList"; "Dynarray"; "LinkedList" ]

(* [failatom detect]'s configuration, as for detect-seq. *)
let config = { Config.default with Config.prune = Config.Prune_coalesce }

(* Armed runs per session; a pass (one session per app, 1200 runs)
   takes ~0.6 s on the reference machine. *)
let runs_per_session = 200
let passes_per_second = 1.25

type target = {
  name : string;
  program : Failatom_minilang.Ast.program;
  plan : Prod.Plan.t;
  reference : Prod.Produce.run_report;
      (** one armed run without the canary: what every canary run must
          reproduce, the canary being transparent (masking itself may
          change what a program prints, when the program relies on a
          non-atomic method's partial update) *)
}

let prepare () =
  List.map
    (fun name ->
      let app = Option.get (Registry.find name) in
      let flavor = Harness.flavor_of_suite app.Registry.suite in
      let program =
        Spans.with_span "minilang.parse" (fun _ ->
            Failatom_minilang.Minilang.parse app.Registry.source)
      in
      let detection = Detect.run ~config ~flavor program in
      let classification = Classify.classify detection in
      let plan = Prod.Plan.build ~config ~flavor ~program ~detection ~classification in
      let reference =
        match Prod.Produce.run ~plan program with
        | Ok { Prod.Produce.runs = [ r ]; _ } -> r
        | Ok _ | Error _ -> failwith ("armed reference run failed for " ^ name)
      in
      { name; program; plan; reference })
    apps

let canary seed =
  { Prod.Produce.seed;
    rate_per_mille = 100;
    max_fires = None;
    point = Prod.Perturb.At_exit;
    fallback_exceptions = [] }

let run ~seed ~seconds ~trace =
  let targets, setup = repeat_setup ~reps:3 (fun () -> with_tracing trace prepare) in
  let passes = work_units ~seconds ~per_second:passes_per_second in
  let st = rng seed 3 in
  let attempted = ref 0 and failed = ref 0 and mismatched = ref 0 in
  let clock = Machine.clock () in
  let sessions = Hashtbl.create 8 in
  let traced_spans = ref [] and untraced_spans = ref [] in
  let calls = ref 0 and hits = ref 0 and fired = ref 0 in
  let wrap_ns = ref 0 and rollback_ns = ref 0 in
  let obs_before = ref None and obs_after = ref None in
  let session traced t =
    let perturb = canary (Random.State.bits st) in
    let r, span =
      Machine.measure clock (fun () ->
          Spans.with_span "produce-canary.op" (fun root ->
              Spans.with_span ~parent:root "prod.produce" (fun _ ->
                  try Prod.Produce.run ~perturb ~times:runs_per_session ~plan:t.plan t.program
                  with e -> Error (Printexc.to_string e))))
    in
    if traced then traced_spans := span :: !traced_spans
    else untraced_spans := span :: !untraced_spans;
    attempted := !attempted + runs_per_session;
    add_sample sessions t.name span;
    match r with
    | Error msg ->
      prerr_endline (Printf.sprintf "perfbench: %s session failed: %s" t.name msg);
      failed := !failed + runs_per_session
    | Ok r ->
      let sc = r.Prod.Produce.scorecard in
      let module S = Prod.Scorecard in
      (* every run masked transparently; canary failures are failed runs *)
      let bad_runs =
        List.length
          (List.filter
             (fun (rr : Prod.Produce.run_report) -> rr <> t.reference)
             r.Prod.Produce.runs)
      in
      let accounting = S.fired sc = S.validated sc + S.interfered sc + S.failed sc in
      if bad_runs > 0 || (not accounting) || List.length r.Prod.Produce.runs <> runs_per_session
      then begin
        prerr_endline (Printf.sprintf "perfbench: %s: output check failed" t.name);
        incr mismatched
      end;
      failed := !failed + max (S.failed sc) bad_runs;
      if traced then begin
        calls := !calls + S.calls sc;
        hits := !hits + S.hits sc;
        fired := !fired + S.fired sc;
        List.iter
          (fun (tr : S.timing_row) ->
            wrap_ns := !wrap_ns + tr.S.t_wrap_ns;
            rollback_ns := !rollback_ns + tr.S.t_rollback_ns)
          sc.S.timings
      end
  in
  if trace then obs_before := Some (Obs.snapshot ());
  for i = 0 to passes - 1 do
    let traced = traced_unit ~trace i in
    let order = shuffle st targets in
    with_tracing traced (fun () -> List.iter (session traced) order)
  done;
  if trace then obs_after := Some (Obs.snapshot ());
  Machine.finish clock;
  let ms_of time =
    let t = Hashtbl.create 8 in
    Hashtbl.iter
      (fun k spans -> Hashtbl.replace t k (List.map (fun s -> time s *. 1e3) spans))
      sessions;
    t
  in
  let raw_ms = ms_of Machine.raw and scaled_ms = ms_of (Machine.scaled clock) in
  (* runs per second of a typical pass: every app's median session *)
  let runs_per_s ms =
    float_of_int (runs_per_session * List.length targets)
    /. Hashtbl.fold (fun _ ms acc -> acc +. (Stats.median ms /. 1e3)) ms 0.
  in
  let layer =
    match (!obs_before, !obs_after) with
    | Some b, Some a ->
      let dh n = hist_sum a n - hist_sum b n and dc n = counter a n - counter b n in
      let spans = Spans.all () in
      let run_main = dh "vm.run_main" and wrap = dh "mask.wrap_ns" in
      let rollback = dh "mask.rollback_ns" and validate = dh "prod.validate_ns" in
      let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
      let produce_ns = Spans.total_ns "prod.produce" spans in
      let image = dh "compile.image" and inst = dh "compile.instantiate" in
      [ m "minilang.parse_ms" (ms_of_ns (Spans.total_ns "minilang.parse" spans)) "ms";
        m "minilang.image_ms" (ms_of_ns image) "ms";
        m "runtime.instantiate_ms" (ms_of_ns inst) "ms";
        (* the program's own work: run_main minus the armed wrappers and
           the canary's validation nested in it *)
        m "runtime.interpret_ms" (ms_of_ns (run_main - wrap - rollback - validate)) "ms";
        m "runtime.vm_steps" (float_of_int (dc "vm.steps")) "count";
        m "runtime.heap_allocs" (float_of_int (dc "heap.allocations")) "count";
        m "prod.wrap_ns_per_call" (per !wrap_ns !calls) "ns";
        m "prod.rollback_ns_per_hit" (per !rollback_ns !hits) "ns";
        m "prod.validate_ms" (ms_of_ns validate) "ms";
        m "prod.calls" (float_of_int !calls) "count";
        m "prod.hits" (float_of_int !hits) "count";
        m "prod.fired" (float_of_int !fired) "count";
        m "prod.session_self_ms"
          (ms_of_ns (produce_ns - image - inst - run_main)) "ms";
        m "unattributed_ratio"
          (Spans.unattributed_ratio
             ~roots:(List.filter (fun s -> s.Spans.name = "produce-canary.op") spans)
             spans)
          "ratio";
        m "obs.trace_overhead_ratio"
          (trace_overhead clock ~traced:!traced_spans ~untraced:!untraced_spans)
          "ratio" ]
    | _ -> []
  in
  { correct = !mismatched = 0;
    attempted = !attempted;
    failed = !failed;
    setup_s = setup.scaled;
    e2e =
      [ m "ops_per_s" (runs_per_s scaled_ms) "1/s";
        m "p50_ms" (typical_ms scaled_ms) "ms";
        m "peak_rss_mb" (peak_rss_mb ()) "MB" ];
    layer;
    info =
      [ ("raw_ops_per_s", Printf.sprintf "%.2f" (runs_per_s raw_ms));
        ("raw_p50_ms", Printf.sprintf "%.3f" (typical_ms raw_ms));
        ("raw_setup_s", Printf.sprintf "%.5f" setup.raw);
        ("passes", string_of_int passes);
        ("runs_per_session", string_of_int runs_per_session);
        ("apps", String.concat "," apps) ] }
