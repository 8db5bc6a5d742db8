(* The timed loop both detection workloads share: passes over a set of
   parsed programs in seeded order, each operation one [Detect.run]
   plus [Classify.classify], checked by the caller.  In a traced run
   every other pass records spans and the program's Obs counters, and
   the Obs deltas around each [Detect.run] split its time by layer. *)

open Failatom_core
open Common

type target = {
  name : string;
  program : Failatom_minilang.Ast.program;
  flavor : Detect.flavor;
  config : Config.t;
  check : Detect.result -> Classify.t -> bool;
}

type sample = { points : int; span : Machine.span }

type outcome = {
  attempted : int;
  failed : int;
  mismatched : int;
  samples : (string, sample list) Hashtbl.t;  (** per target name *)
  clock : Machine.clock;
  traced : Machine.span list;
  untraced : Machine.span list;
  layer : metric list;  (** empty unless traced *)
}

(* Obs counters summed over the traced operations. *)
let counted =
  [ "vm.steps"; "heap.allocations"; "detect.snapshots_taken"; "detect.canon_memo_hits";
    "detect.canon_memo_misses"; "detect.points_total"; "detect.points_coalesced";
    "sched.switches"; "sched.preemptions" ]

(* [per_pass] holds the targets of each pass. *)
let run ~seed ~trace ~op_name per_pass =
  let st = rng seed 1 in
  let orders = List.map (shuffle st) per_pass in
  let clock = Machine.clock () in
  let attempted = ref 0 and failed = ref 0 and mismatched = ref 0 in
  let samples = Hashtbl.create 16 in
  let traced_spans = ref [] and untraced_spans = ref [] in
  let acc = Hashtbl.create 16 in
  let add k v = Hashtbl.replace acc k (v + Option.value ~default:0 (Hashtbl.find_opt acc k)) in
  let one traced t =
    incr attempted;
    let before = if traced then Some (Obs.snapshot ()) else None in
    let outcome, span =
      Machine.measure clock (fun () ->
          Spans.with_span op_name (fun root ->
              try
                let start = Obs.now_ns () in
                let d =
                  Spans.with_span ~parent:root "core.detect" (fun _ ->
                      Detect.run ~config:t.config ~flavor:t.flavor t.program)
                in
                let detect_ns = Obs.now_ns () - start in
                let c =
                  Spans.with_span ~parent:root "core.classify" (fun _ -> Classify.classify d)
                in
                Ok (d, c, detect_ns)
              with e -> Error e))
    in
    if traced then traced_spans := span :: !traced_spans
    else untraced_spans := span :: !untraced_spans;
    match outcome with
    | Error e ->
      prerr_endline (Printf.sprintf "perfbench: %s failed: %s" t.name (Printexc.to_string e));
      incr failed
    | Ok (d, c, detect_ns) ->
      add_sample samples t.name { points = d.Detect.injections; span };
      if not (t.check d c) then begin
        prerr_endline (Printf.sprintf "perfbench: %s: output check failed" t.name);
        incr failed;
        incr mismatched
      end;
      Option.iter
        (fun before ->
          let after = Obs.snapshot () in
          let dh n = hist_sum after n - hist_sum before n in
          let image = dh "compile.image" and inst = dh "compile.instantiate" in
          let run_main = dh "vm.run_main" and canon = dh "detect.canonicalize" in
          add "image_ns" image;
          add "instantiate_ns" inst;
          add "canonicalize_ns" canon;
          add "interpret_ns" (run_main - canon);
          add "detect_self_ns" (detect_ns - image - inst - run_main);
          List.iter (fun n -> add n (counter after n - counter before n)) counted)
        before
  in
  List.iteri
    (fun i order ->
      let traced = traced_unit ~trace i in
      with_tracing traced (fun () -> List.iter (one traced) order))
    orders;
  Machine.finish clock;
  let layer =
    if not trace then []
    else begin
      let spans = Spans.all () in
      let get k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt acc k)) in
      let ms k = get k /. 1e6 in
      let memo_h = get "detect.canon_memo_hits" and memo_m = get "detect.canon_memo_misses" in
      let total = get "detect.points_total" and coalesced = get "detect.points_coalesced" in
      let share a b = if b = 0. then 0. else a /. b in
      [ m "minilang.image_ms" (ms "image_ns") "ms";
        m "runtime.interpret_ms" (ms "interpret_ns") "ms";
        m "runtime.instantiate_ms" (ms "instantiate_ns") "ms";
        m "runtime.canonicalize_ms" (ms "canonicalize_ns") "ms";
        m "runtime.vm_steps" (get "vm.steps") "count";
        m "runtime.heap_allocs" (get "heap.allocations") "count";
        m "runtime.snapshots" (get "detect.snapshots_taken") "count";
        m "runtime.canon_memo_hit_ratio" (share memo_h (memo_h +. memo_m)) "ratio";
        m "runtime.sched_switches" (get "sched.switches") "count";
        m "runtime.sched_preemptions" (get "sched.preemptions") "count";
        m "core.detect_self_ms" (ms "detect_self_ns") "ms";
        m "core.classify_ms" (ms_of_ns (Spans.total_ns "core.classify" spans)) "ms";
        m "core.points_total" total "count";
        m "core.points_executed" (total -. coalesced) "count";
        m "core.prune_eliminated_ratio" (share coalesced total) "ratio";
        m "unattributed_ratio"
          (Spans.unattributed_ratio
             ~roots:(List.filter (fun s -> s.Spans.name = op_name) spans)
             spans)
          "ratio";
        m "obs.trace_overhead_ratio"
          (trace_overhead clock ~traced:!traced_spans ~untraced:!untraced_spans)
          "ratio" ]
    end
  in
  { attempted = !attempted;
    failed = !failed;
    mismatched = !mismatched;
    samples;
    clock;
    traced = !traced_spans;
    untraced = !untraced_spans;
    layer }

(* Throughput of a typical pass: every target at its median cost per
   point over the passes, weighted by its median point count, so a
   burst of interference moves one sample, not the figure. *)
let points_per_s samples time =
  let points, secs =
    Hashtbl.fold
      (fun _ ss (p, s) ->
        let n = Stats.median (List.map (fun x -> float_of_int x.points) ss) in
        let c = Stats.median (List.map (fun x -> time x /. float_of_int (max x.points 1)) ss) in
        (p +. n, s +. (n *. c)))
      samples (0., 0.)
  in
  if secs > 0. then points /. secs else 0.

let latency_ms samples time =
  let per = Hashtbl.create 16 in
  Hashtbl.iter (fun k ss -> Hashtbl.replace per k (List.map (fun x -> time x *. 1e3) ss)) samples;
  typical_ms per

(* The result of a detection workload from its loop outcome. *)
let result ~setup ~extra_layer ~info o =
  let raw x = Machine.raw x.span and scaled x = Machine.scaled o.clock x.span in
  let points =
    Hashtbl.fold (fun _ ss acc -> List.fold_left (fun a x -> a + x.points) acc ss) o.samples 0
  in
  { correct = o.mismatched = 0;
    attempted = o.attempted;
    failed = o.failed;
    setup_s = setup.scaled;
    e2e =
      [ m "ops_per_s" (points_per_s o.samples scaled) "1/s";
        m "p50_ms" (latency_ms o.samples scaled) "ms";
        m "peak_rss_mb" (peak_rss_mb ()) "MB" ];
    layer = (if o.layer = [] then [] else extra_layer @ o.layer);
    info =
      [ ("points", string_of_int points);
        ("raw_ops_per_s", Printf.sprintf "%.2f" (points_per_s o.samples raw));
        ("raw_p50_ms", Printf.sprintf "%.3f" (latency_ms o.samples raw));
        ("raw_setup_s", Printf.sprintf "%.5f" setup.raw) ]
      @ info }
