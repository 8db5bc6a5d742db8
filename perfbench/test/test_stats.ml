(* Checks the benchmark's own arithmetic: the tail-percentile rule,
   span self time, the unattributed ratio and the RSS-per-job slope.
   Run with [dune test perfbench]. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let range n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* 1..1000: p99 sits at rank 990 with 10 samples beyond it, p99.9 at
     rank 999 with only one. *)
  check "p99 with exactly ten beyond"
    (Stats.tail_percentile (range 1000) = Some (99.0, 990.));
  check "p99 loses its tenth sample"
    (Stats.tail_percentile (range 999) = Some (95.0, 950.));
  check "p99.9 once 10000 samples"
    (Stats.tail_percentile (range 10_000) = Some (99.9, 9990.));
  check "unsorted input" (Stats.tail_percentile (List.rev (range 1000)) = Some (99.0, 990.));
  check "too few samples" (Stats.tail_percentile (range 19) = None);
  check "median of 20" (Stats.tail_percentile (range 20) = Some (50.0, 10.));
  check "min_beyond" (Stats.tail_percentile ~min_beyond:1 (range 100) = Some (99.0, 99.));
  check "median odd" (Stats.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (Stats.median [ 4.; 1.; 2.; 3. ] = 2.5)

let span ?(parent = 0) id t0 t1 = { Spans.id; parent; name = "s"; t0; t1 }

let () =
  let root = span 1 0 100 in
  check "no children" (Spans.self_ns root ~children:[] = 100);
  (* overlapping children count once; the part outside the root is
     clipped; a child of another span is ignored *)
  let children =
    [ span ~parent:1 2 10 30; span ~parent:1 3 20 50; span ~parent:1 4 90 120;
      span ~parent:9 5 60 80 ]
  in
  check "self minus covered" (Spans.self_ns root ~children = 50);
  check "nested child inside child"
    (Spans.self_ns root ~children:[ span ~parent:1 2 10 60; span ~parent:1 3 20 30 ] = 50);
  check "covered clip" (Spans.covered ~t0:0 ~t1:10 [ (-5, 3); (8, 20) ] = 5);
  check "covered disjoint" (Spans.covered ~t0:0 ~t1:100 [ (50, 60); (10, 20) ] = 20);
  (* two roots: 50 of 100 and 10 of 20 unattributed *)
  let root2 = span 6 200 220 in
  let all = root :: root2 :: span ~parent:6 7 205 215 :: children in
  check "unattributed ratio"
    (close (Spans.unattributed_ratio ~roots:[ root; root2 ] all) (60. /. 120.));
  check "unattributed empty" (Spans.unattributed_ratio ~roots:[] all = 0.);
  (* recorder: a span around a child records both, child parented *)
  Spans.set_enabled true;
  Spans.with_span "outer" (fun id -> Spans.with_span ~parent:id "inner" (fun _ -> ()));
  Spans.set_enabled false;
  Spans.with_span "off" (fun _ -> ());
  match Spans.all () with
  | [ o; i ] ->
    check "recorder parent" (i.Spans.parent = o.Spans.id && o.Spans.name = "outer");
    check "recorder nesting" (o.Spans.t0 <= i.Spans.t0 && i.Spans.t1 <= o.Spans.t1)
  | l -> check (Printf.sprintf "recorder kept %d spans" (List.length l)) false

let () =
  (* RSS grows 250 KB per job plus noise that cancels out *)
  let pts = List.init 10 (fun i ->
      let x = float_of_int (i * 100) in
      (x, 1000. +. (250. *. x) +. if i mod 2 = 0 then 5. else -5.))
  in
  check "slope" (Float.abs (Stats.slope pts -. 250.) < 0.1);
  check "slope flat" (close (Stats.slope [ (0., 7.); (10., 7.) ]) 0.);
  check "slope degenerate" (Stats.slope [ (3., 1.) ] = 0.);
  if !failures > 0 then exit 1 else print_endline "perfbench arithmetic: ok"
