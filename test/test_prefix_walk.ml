(* Prefix-sharing detection against the fresh-VM oracle.

   [Detect.run] walks a sequential program once and forks each injected
   run from its injection point, also under a [prepare] hook or a run
   budget; [Detect.run_once] runs one threshold on a fresh VM.  The walk
   must produce exactly the records of the loop Listing 1 describes —
   threshold 1, 2, … on fresh VMs until a run fires nothing — and the
   same run-log bytes, on every sequential catalog app, in both
   flavors, under every pruning mode and both snapshot modes, with and
   without a budget or hooks.  The edge cases below each pin one
   piece of what a fork must copy or rewind; each fails when that
   piece is left out. *)

open Failatom_runtime
open Failatom_minilang
open Failatom_core
open Failatom_apps

let flavors = [ Detect.Source_weaving; Detect.Load_time_filters ]

(* Listing 1 on fresh VMs: the oracle every walk is compared with. *)
let fresh_loop ?(setup = fun (_ : Vm.t) -> ()) ?schedule compiled config analyzer =
  let rec go threshold acc =
    if threshold > config.Config.max_runs then
      raise
        (Detect.Detection_error
           (Printf.sprintf "exceeded max_runs = %d injection runs" config.Config.max_runs))
    else
      let r = Detect.run_once ?schedule compiled config analyzer ~prepare:setup ~threshold in
      match r.Marks.injected with
      | Some _ -> go (threshold + 1) (r :: acc)
      | None -> List.rev (r :: acc)
  in
  go 1 []

let records_t = Alcotest.testable (Fmt.any "<run records>") ( = )

let count name = Failatom_obs.Obs.counter_value (Failatom_obs.Obs.counter name)

(* Runs [f] with metrics on; also returns how many injected runs forked. *)
let with_forks f =
  Failatom_obs.Obs.with_enabled true (fun () ->
      Failatom_obs.Obs.reset ();
      let r = f () in
      let forks = count "detect.forks" in
      Failatom_obs.Obs.reset ();
      (r, forks))

(* ---------------- differential: every sequential app -------------- *)

let sequential_apps =
  List.filter (fun (a : Registry.t) -> a.Registry.suite <> Registry.Conc) Registry.catalog

let check_app (app : Registry.t) () =
  let program = Minilang.parse app.Registry.source in
  let plain = Compile.image program in
  let flow = Exnflow.analyze plain program in
  let baseline = (Profile.of_image plain).Profile.output in
  List.iter
    (fun flavor ->
      let compiled = Detect.compile ~plain flavor program in
      List.iter
        (fun snapshot_mode ->
          let base = { Config.default with Config.snapshot_mode } in
          (* drop changes the injectable sets, hence the numbering; off
             and coalesce share one oracle *)
          let oracles = Hashtbl.create 2 in
          let oracle analyzer =
            let key = List.map (Analyzer.injectable_for analyzer) (Analyzer.method_ids analyzer) in
            match Hashtbl.find_opt oracles key with
            | Some runs -> runs
            | None ->
              let runs = fresh_loop compiled base analyzer in
              Hashtbl.replace oracles key runs;
              runs
          in
          List.iter
            (fun prune ->
              let config = { base with Config.prune } in
              let what =
                Printf.sprintf "%s %s %s %s" app.Registry.name
                  (Detect.flavor_name flavor) (Config.prune_name prune)
                  (match snapshot_mode with
                   | Config.Snapshot_cow -> "cow"
                   | Config.Snapshot_eager -> "eager")
              in
              let walked = Detect.run ~config ~flavor ~plain ~compiled program in
              let analyzer =
                match prune with
                | Config.Prune_drop -> Analyzer.analyze ~flow config program
                | Config.Prune_off | Config.Prune_coalesce -> Analyzer.analyze config program
              in
              let runs = oracle analyzer in
              Alcotest.check records_t (what ^ ": runs") runs walked.Detect.runs;
              let fresh =
                { walked with
                  Detect.runs;
                  transparent =
                    String.equal (List.nth runs (List.length runs - 1)).Marks.output
                      baseline }
              in
              Alcotest.(check string) (what ^ ": run log") (Run_log.save fresh)
                (Run_log.save walked);
              (* under a run budget or a [prepare] hook the walk still
                 forks every offered point, and the log is the same *)
              if snapshot_mode = Config.Snapshot_cow && prune <> Config.Prune_drop then
                List.iter
                  (fun (how, run_timeout_s, prepare) ->
                    Alcotest.(check string) (what ^ ": run log, " ^ how)
                      (Run_log.save fresh)
                      (Run_log.save
                         (Detect.run ~config ~flavor ~plain ~compiled ?run_timeout_s ?prepare
                            program)))
                  [ ("timeout", Some 600., None); ("prepare", None, Some ignore) ])
            [ Config.Prune_off; Config.Prune_drop; Config.Prune_coalesce ])
        [ Config.Snapshot_cow; Config.Snapshot_eager ])
    flavors

(* A masked program re-detected as [mask --verify] does, with its
   checkpoint hooks, against the loop with the same hooks: the walk
   forks every injected run, the hooks' checkpoints rewound with it. *)
let check_masked (app : Registry.t) () =
  let program = Minilang.parse app.Registry.source in
  let config = Config.default in
  let flavor = Harness.flavor_of_suite app.Registry.suite in
  let corrected = (Mask.correct ~config ~flavor program).Mask.corrected in
  let hooks = Mask.register_hooks config in
  let plain = Compile.image corrected in
  let compiled = Detect.compile ~plain flavor corrected in
  let verify () = Detect.run ~config ~flavor ~prepare:hooks ~plain ~compiled corrected in
  match Profile.of_image ~prepare:hooks plain with
  | exception Vm.Mini_raise _ -> (
    (* the masked program fails uninjected, and its re-detection
       refuses it with a typed error before any run *)
    match verify () with
    | _ -> Alcotest.failf "%s: re-detection of a failing program succeeded" app.Registry.name
    | exception Detect.Detection_error _ -> ())
  | profile ->
    let verified, forks = with_forks verify in
    Alcotest.(check int) (app.Registry.name ^ ": every injected run forked")
      verified.Detect.injections forks;
    let runs = fresh_loop ~setup:hooks compiled config verified.Detect.analyzer in
    let fresh =
      { verified with
        Detect.runs;
        transparent =
          String.equal (List.nth runs (List.length runs - 1)).Marks.output
            profile.Profile.output }
    in
    Alcotest.(check string) (app.Registry.name ^ ": run log") (Run_log.save fresh)
      (Run_log.save verified)

(* ---------------- edge cases -------------------------------------- *)

let compile_src ?(checked = true) src =
  let program =
    if checked then Minilang.parse ~allow_reserved:true src
    else Parser.program_of_string src
  in
  (program, Compile.image program)

(* The walk next to the oracle, for one program under one setup. *)
let walk_vs_fresh ?setup ?(config = Config.default) ?(checked = true) ~what src =
  let program, plain = compile_src ~checked src in
  let flow = Exnflow.analyze plain program in
  let analyzer = Analyzer.analyze config program in
  let outcome f = match f () with runs -> Ok runs | exception Detect.Detection_error m -> Error m in
  List.iter
    (fun flavor ->
      let compiled = Detect.compile ~plain flavor program in
      let expected = outcome (fun () -> fresh_loop ?setup compiled config analyzer) in
      List.iter
        (fun flow ->
          let got =
            outcome (fun () ->
                fst
                  (Detect.walk ?prepare:setup ?flow compiled config analyzer
                     ~baseline_output:""))
          in
          let label =
            Printf.sprintf "%s, %s, %s" what (Detect.flavor_name flavor)
              (if flow = None then "off" else "coalesce")
          in
          match expected, got with
          | Ok a, Ok b -> Alcotest.check records_t label a b
          | Error a, Error b -> Alcotest.(check string) label a b
          | Ok _, Error m -> Alcotest.failf "%s: walk failed: %s" label m
          | Error m, Ok _ -> Alcotest.failf "%s: walk succeeded, oracle failed: %s" label m)
        [ None; Some flow ])
    flavors;
  analyzer

let set_step_limit n vm = vm.Vm.step_limit <- n

(* A suffix that spins: each caught runtime exception costs 400 loop
   iterations per unit of [i].  With the limit between the cost of the
   i = 2 suffixes and the i = 3 ones, the first run to overrun is the
   first i = 3 point — unless suffix steps leak into the walk's
   counter, which trips earlier. *)
let spin_src =
  {|
class W {
  field n;
  method init() { this.n = 0; return this; }
  method work(k) { this.n = this.n + k; return this.n; }
}
function main() {
  var w = new W();
  var i = 0;
  while (i < 4) {
    try { w.work(i); } catch (RuntimeException e) {
      var j = 0;
      while (j < 400 * i) { j = j + 1; }
    }
    i = i + 1;
  }
  println(w.n);
  return 0;
}
|}

let test_step_limit () =
  let program, plain = compile_src spin_src in
  let compiled = Detect.compile ~plain Detect.Load_time_filters program in
  let analyzer = Analyzer.analyze Config.default program in
  (* steps of every fresh run under the default limit *)
  let steps =
    let last = ref None in
    let capture vm = last := Some vm in
    List.map
      (fun (r : Marks.run_record) ->
        ignore
          (Detect.run_once compiled Config.default analyzer ~prepare:capture
             ~threshold:r.Marks.injection_point);
        (r.Marks.injection_point, (Option.get !last).Vm.steps))
      (fresh_loop compiled Config.default analyzer)
  in
  (* the limit sits between the longest run before the most expensive
     one and that one: exactly one threshold overruns first *)
  let worst_t, worst = List.fold_left (fun (t, s) (t', s') -> if s' > s then (t', s') else (t, s)) (0, 0) steps in
  let before = List.fold_left (fun acc (t, s) -> if t < worst_t then max acc s else acc) 0 steps in
  Alcotest.(check bool) "suffix costs grow with i" true (before < worst);
  let setup = set_step_limit ((before + worst) / 2) in
  (match fresh_loop ~setup compiled Config.default analyzer with
   | _ -> Alcotest.fail "oracle did not overrun the step limit"
   | exception Detect.Detection_error m ->
     Alcotest.(check string) "the oracle overruns at the costliest run"
       (Printf.sprintf "run %d exceeded the step limit" worst_t)
       m);
  ignore (walk_vs_fresh ~setup ~what:"step limit" spin_src)

let test_max_runs () =
  let config = { Config.default with Config.max_runs = 5 } in
  ignore (walk_vs_fresh ~config ~what:"max_runs" spin_src);
  (* and through Detect.run, both pruning modes *)
  let program, _ = compile_src spin_src in
  List.iter
    (fun prune ->
      match Detect.run ~config:{ config with Config.prune } program with
      | _ -> Alcotest.fail "max_runs not enforced"
      | exception Detect.Detection_error m ->
        Alcotest.(check string) "max_runs message" "exceeded max_runs = 5 injection runs" m)
    [ Config.Prune_off; Config.Prune_coalesce ]

(* Globals live in the VM, outside the heap: a suffix that writes one
   (through hooks a tool registered) must not leak into the walk. *)
let globals_src =
  {|
class W {
  field n;
  method init() { this.n = 0; return this; }
  method work(k) { this.n = this.n + k; return this.n; }
}
function main() {
  __setg(0);
  var w = new W();
  for (var i = 0; i < 3; i = i + 1) {
    try { w.work(i); } catch (RuntimeException e) { __setg(__getg() + 1); __seth(i); }
  }
  println("g=" + __getg() + " h=" + __geth());
  return 0;
}
|}

let global_hooks vm =
  let get name = Option.value (Vm.get_global vm name) ~default:Value.Null in
  Vm.register_hook vm "__setg" (fun vm args ->
      Vm.set_global vm "g" (List.hd args);
      Value.Null);
  Vm.register_hook vm "__getg" (fun _ _ -> get "g");
  (* "h" only ever exists in runs where an injection was caught *)
  Vm.register_hook vm "__seth" (fun vm args ->
      Vm.set_global vm "h" (List.hd args);
      Value.Null);
  Vm.register_hook vm "__geth" (fun _ _ -> get "h")

let test_suffix_writes_global () =
  ignore (walk_vs_fresh ~setup:global_hooks ~what:"globals" globals_src)

(* A suffix that allocates: the ids it used are handed out again after
   the rewind, so later injected exceptions (whose heap ids the marks
   record, and by which coalescing decides [injected_escaped]) get the
   ids fresh runs give them. *)
let alloc_src =
  {|
class Junk { field v; method init(v) { this.v = v; return this; } }
class W {
  field n;
  method init() { this.n = 0; return this; }
  method work(k) { this.n = this.n + k; return this.n; }
  method guarded(k) {
    try { this.work(k); } catch (IllegalStateException e) { var j = new Junk(k); j.v = k + 1; }
    return this.n;
  }
}
function main() {
  var w = new W();
  for (var i = 0; i < 3; i = i + 1) {
    try { w.guarded(i); } catch (RuntimeException e) { var a = new Junk(i); var b = [a, a]; }
  }
  println(w.n);
  return 0;
}
|}

let test_suffix_allocates () = ignore (walk_vs_fresh ~what:"allocation" alloc_src)

(* [outer]'s entry snapshot is open when the points inside [inner] fork;
   every suffix unwinds through [outer] (closing that snapshot and
   popping it off the snapshot stack).  Back in the walk, [outer] then
   mutates and exits exceptionally for real: its mark must still see the
   mutation — the snapshot reopened, with its dirty set as at the fork. *)
let shadow_src =
  {|
class Box {
  field x;
  method init() { this.x = 0; return this; }
  method inner() { return 1; }
  method outer(fail) {
    this.inner();
    this.x = this.x + 1;
    if (fail) { var a = [1]; var y = a[5]; }
    return this.x;
  }
}
function main() {
  var b = new Box();
  b.outer(false);
  try { b.outer(true); } catch (IndexOutOfBoundsException e) { println("caught"); }
  println(b.x);
  return 0;
}
|}

let test_open_prefix_snapshot () =
  List.iter
    (fun snapshot_mode ->
      let config = { Config.default with Config.snapshot_mode } in
      let analyzer = walk_vs_fresh ~config ~what:"open snapshot" shadow_src in
      ignore analyzer)
    [ Config.Snapshot_cow; Config.Snapshot_eager ];
  (* the real exceptional exit is marked non-atomic in the probe run *)
  let program, _ = compile_src shadow_src in
  let d = Detect.run ~flavor:Detect.Load_time_filters program in
  let probe = List.nth d.Detect.runs (List.length d.Detect.runs - 1) in
  Alcotest.(check bool) "probe marks outer non-atomic" true
    (List.exists
       (fun (m : Marks.mark) ->
         m.Marks.meth = Method_id.make "Box" "outer" && not m.Marks.atomic)
       probe.Marks.marks)

(* A [break] outside any loop of [step] unwinds into [main]'s loop,
   through a try/finally, crossing the wrapper frame; points inside
   [step] fork in the middle of that loop, with its block records and
   registers live: a suffix whose exception the handler catches writes
   the loop variable, one whose exception it does not catch leaves the
   try block running its finally. *)
let break_src =
  {|
class S {
  field n;
  method init() { this.n = 0; return this; }
  method step(i) { this.n = this.n + i; if (i == 2) { break; } return this.n; }
}
function main() {
  var s = new S();
  for (var i = 0; i < 5; i = i + 1) {
    try { s.step(i); print(i); }
    catch (NullPointerException e) { i = i + 1; }
    finally { print("f"); }
  }
  println("/" + s.n);
  return 0;
}
|}

let test_cross_frame_break () =
  ignore (walk_vs_fresh ~checked:false ~what:"cross-frame break" break_src)

(* Points reached under native re-entry (a hook calling back into the
   program) cannot fork: the walk fails with a typed error naming the
   first of them, having forked the points before it.  The hook calls
   [twice]: the source flavor's points of [twice] are inside its woven
   wrapper's body, the load-time filters' at its entry, before the
   re-entered body runs, so there the first point that fails is the
   nested [work]'s. *)
let reentry_src =
  {|
class W {
  field n;
  method init() { this.n = 0; return this; }
  method work() { this.n = this.n + 1; return this.n; }
  method twice() { this.work(); return this.work(); }
}
function main() {
  var w = new W();
  w.work();
  __call(w);
  w.work();
  println(w.n);
  return 0;
}
|}

let reentry_hooks vm =
  Vm.register_hook vm "__call" (fun vm args -> Vm.invoke vm (List.hd args) "twice" [])

let reentry_error = " cannot fork: its injection point is reached under native re-entry"

let walk_error ?schedule ?flow compiled analyzer =
  match
    Detect.walk ~prepare:reentry_hooks ?schedule ?flow compiled Config.default analyzer
      ~baseline_output:""
  with
  | _ -> None
  | exception Detect.Detection_error m -> Some m

let test_native_reentry () =
  let program, plain = compile_src reentry_src in
  let flow = Exnflow.analyze plain program in
  let analyzer = Analyzer.analyze Config.default program in
  let points meth = List.length (Analyzer.injectable_for analyzer (Method_id.make "W" meth)) in
  (* [new W()] and the first [w.work()] reach theirs in [main] *)
  let first = function
    | Detect.Source_weaving -> points "init" + points "work" + 1
    | Detect.Load_time_filters -> points "init" + points "work" + points "twice" + 1
  in
  List.iter
    (fun flavor ->
      let compiled = Detect.compile ~plain flavor program in
      List.iter
        (fun flow ->
          let what =
            Printf.sprintf "%s, %s" (Detect.flavor_name flavor)
              (if flow = None then "off" else "coalesce")
          in
          let error, forks = with_forks (fun () -> walk_error ?flow compiled analyzer) in
          Alcotest.(check (option string)) (what ^ ": the first re-entered point fails")
            (Some (Printf.sprintf "run %d%s" (first flavor) reentry_error))
            error;
          Alcotest.(check bool) (what ^ ": the points before it forked") true (forks > 0))
        [ None; Some flow ])
    flavors

(* ---------------- concurrent programs ----------------------------- *)

(* Every concurrent comparison runs under coop, the three slice seeds of
   [--schedules 4], a seeded slice and two PCT specs.  The walk forks
   with the scheduler copied: threads, monitors, run queue, decision
   stream and counters. *)
let schedules =
  List.map
    (fun spec -> (spec, Option.get (Sched.policy_of_string spec)))
    [ "coop"; "slice:1"; "slice:2"; "slice:3"; "slice:48271"; "pct:2:7"; "pct:3:9001" ]

let spec_config = { Config.default with Config.schedules = List.map fst schedules }

let conc_apps =
  List.filter (fun (a : Registry.t) -> a.Registry.suite = Registry.Conc) Registry.catalog

(* Detection of a concurrent app, walked per schedule, against one
   fresh-VM loop per schedule: records (their schedule switches and
   decision digests included), transparency and run-log bytes. *)
let check_conc_app (app : Registry.t) () =
  let program = Minilang.parse app.Registry.source in
  let plain = Compile.image program in
  List.iter
    (fun flavor ->
      let what = app.Registry.name ^ " " ^ Detect.flavor_name flavor in
      let compiled = Detect.compile ~plain flavor program in
      let walked, forks =
        with_forks (fun () -> Detect.run ~config:spec_config ~flavor ~plain ~compiled program)
      in
      Alcotest.(check int) (what ^ ": every injected run forked") walked.Detect.injections forks;
      let per_schedule =
        List.map
          (fun ((_, policy) as schedule) ->
            let runs =
              fresh_loop ~schedule compiled walked.Detect.config walked.Detect.analyzer
            in
            let probe = List.nth runs (List.length runs - 1) in
            ( runs,
              String.equal probe.Marks.output
                (Detect.baseline_under plain ~prepare:ignore policy) ))
          schedules
      in
      let runs = List.concat_map fst per_schedule in
      Alcotest.check records_t (what ^ ": runs") runs walked.Detect.runs;
      Alcotest.(check bool) (what ^ ": transparent") (List.for_all snd per_schedule)
        walked.Detect.transparent;
      Alcotest.(check bool) (what ^ ": schedules switch threads") true
        (List.exists
           (fun (r : Marks.run_record) ->
             match r.Marks.sched with Some s -> s.Marks.sched_switches > 0 | None -> false)
           walked.Detect.runs);
      Alcotest.(check string) (what ^ ": run log")
        (Run_log.save { walked with Detect.runs })
        (Run_log.save walked);
      (* under a run budget every injected run still forks *)
      let budgeted = [ "slice:1"; "pct:2:7" ] in
      let timed, forks =
        with_forks (fun () ->
            Detect.run ~config:{ spec_config with Config.schedules = budgeted } ~flavor ~plain
              ~compiled ~run_timeout_s:600. program)
      in
      Alcotest.(check int) (what ^ ": every budgeted run forked") timed.Detect.injections forks;
      let oracle =
        List.filter (fun ((spec, _), _) -> List.mem spec budgeted)
          (List.combine schedules per_schedule)
      in
      Alcotest.(check string) (what ^ ": run log, timeout")
        (Run_log.save
           { timed with
             Detect.runs = List.concat_map (fun (_, (runs, _)) -> runs) oracle;
             transparent = List.for_all (fun (_, (_, t)) -> t) oracle })
        (Run_log.save timed))
    flavors

(* The walk under each schedule next to the oracle under that schedule,
   for one small program: the records, or the detection error. *)
let conc_walk_vs_fresh ?setup ?(config = Config.default) ?(schedules = schedules) ~what src =
  let program, plain = compile_src src in
  let analyzer = Analyzer.analyze config program in
  let outcome f = match f () with runs -> Ok runs | exception Detect.Detection_error m -> Error m in
  List.iter
    (fun flavor ->
      let compiled = Detect.compile ~plain flavor program in
      List.iter
        (fun ((spec, _) as schedule) ->
          let label = Printf.sprintf "%s, %s, %s" what (Detect.flavor_name flavor) spec in
          let expected =
            outcome (fun () -> fresh_loop ?setup ~schedule compiled config analyzer)
          in
          let got, forks =
            with_forks (fun () ->
                outcome (fun () ->
                    fst
                      (Detect.walk ?prepare:setup ~schedule compiled config analyzer
                         ~baseline_output:"")))
          in
          Alcotest.(check bool) (label ^ ": forked") true (forks > 0);
          match expected, got with
          | Ok a, Ok b -> Alcotest.check records_t label a b
          | Error a, Error b -> Alcotest.(check string) label a b
          | Ok _, Error m -> Alcotest.failf "%s: walk failed: %s" label m
          | Error m, Ok _ -> Alcotest.failf "%s: walk succeeded, oracle failed: %s" label m)
        schedules)
    flavors;
  (program, plain)

(* What the uninstrumented program does under a schedule: its VM after
   the run, and the exception that escaped, if any. *)
let baseline_vm plain policy =
  let vm = Compile.instantiate plain in
  let escaped =
    match Compile.run_main ~policy vm with
    | _ -> None
    | exception Vm.Mini_raise e -> Some e.Vm.exn_class
  in
  (vm, escaped)

(* Workers bump a shared counter inside [synchronized] blocks; under the
   slice schedules they are preempted holding the lock, so points fork
   while the monitor has an owner, a depth and queued waiters — and
   main waits in [join] meanwhile. *)
let monitor_src =
  {|
class Counter {
  field n;
  method init() { this.n = 0; return this; }
  method bump(k) { this.n = this.n + k; return this.n; }
}
class Worker {
  field c; field lock; field id;
  method init(c, lock, id) { this.c = c; this.lock = lock; this.id = id; return this; }
  method run() {
    for (var i = 0; i < 3; i = i + 1) {
      synchronized (this.lock) {
        try { this.c.bump(this.id); this.c.bump(i); } catch (NullPointerException e) { print("x"); }
      }
    }
    return this.c.n;
  }
}
function main() {
  var c = new Counter();
  var lock = new Counter();
  var w1 = new Worker(c, lock, 1);
  var w2 = new Worker(c, lock, 2);
  var w3 = new Worker(c, lock, 3);
  var t1 = spawn w1.run();
  var t2 = spawn w2.run();
  var t3 = spawn w3.run();
  synchronized (lock) { c.bump(10); }
  println(join(t1) + join(t2) + join(t3));
  println(c.n);
  return 0;
}
|}

let test_monitor_waiters () =
  let _, plain = conc_walk_vs_fresh ~what:"monitor waiters" monitor_src in
  Alcotest.(check bool) "some schedule contends for the monitor" true
    (List.exists
       (fun (_, policy) -> (fst (baseline_vm plain policy)).Vm.sched_contention > 0)
       schedules)

(* Under coop, [main] reaches its points with the task spawned but not
   started, then blocks in [join] while the task's points fork; the
   task's injected crash reaches [main] through the join. *)
let join_src =
  {|
class Acc {
  field n;
  method init() { this.n = 0; return this; }
  method add(k) { this.n = this.n + k; return this.n; }
}
class Task {
  field a;
  method init(a) { this.a = a; return this; }
  method run() { this.a.add(1); this.a.add(2); return this.a.n; }
}
function main() {
  var a = new Acc();
  var task = new Task(a);
  var t = spawn task.run();
  a.add(10);
  var r = 0;
  try { r = join(t); } catch (RuntimeException e) { r = -1; }
  a.add(r);
  println(a.n);
  return 0;
}
|}

let test_join_and_unstarted () = ignore (conc_walk_vs_fresh ~what:"join, unstarted" join_src)

(* The bomb crashes and nobody joins it: points of the task and of main
   fork with a crashed, unjoined thread, whose crash every run that
   gets that far re-raises at the end. *)
let crash_src =
  {|
class Acc {
  field n;
  method init() { this.n = 0; return this; }
  method add(k) { this.n = this.n + k; return this.n; }
}
class Bomb {
  method init() { return this; }
  method run() { var a = [1]; return a[3]; }
}
class Task {
  field a;
  method init(a) { this.a = a; return this; }
  method run() { this.a.add(1); return this.a.n; }
}
function main() {
  var a = new Acc();
  var bomb = new Bomb();
  var task = new Task(a);
  var b = spawn bomb.run();
  var t = spawn task.run();
  a.add(1);
  join(t);
  a.add(2);
  println(a.n);
  return 0;
}
|}

let test_unjoined_crash () =
  let _, plain = conc_walk_vs_fresh ~what:"unjoined crash" crash_src in
  Alcotest.(check (option string)) "the uninjected run ends with the crash"
    (Some "IndexOutOfBoundsException")
    (snd (baseline_vm plain Sched.Coop))

(* Only a run whose [touch] inside the lock fails makes main join the
   worker while holding the lock the worker waits for: a deadlock that
   exists in the suffix alone. *)
let deadlock_src =
  {|
class Lockee {
  field n;
  method init() { this.n = 0; return this; }
  method touch() { this.n = this.n + 1; return this.n; }
}
class W {
  field l;
  method init(l) { this.l = l; return this; }
  method run() { synchronized (this.l) { this.l.touch(); } return 0; }
}
function main() {
  var l = new Lockee();
  var w = new W(l);
  var t = 0;
  synchronized (l) {
    t = spawn w.run();
    try { l.touch(); } catch (RuntimeException e) { join(t); }
  }
  join(t);
  println(l.n);
  return 0;
}
|}

let test_suffix_deadlock () =
  let program, plain = conc_walk_vs_fresh ~what:"suffix deadlock" deadlock_src in
  Alcotest.(check (option string)) "no deadlock uninjected" None
    (snd (baseline_vm plain Sched.Coop));
  let d = Detect.run ~config:spec_config program in
  Alcotest.(check bool) "some injected run deadlocks" true
    (List.exists
       (fun (r : Marks.run_record) -> r.Marks.escaped = Some "IllegalStateException")
       d.Detect.runs)

(* Two threads make thousands of call opportunities, a few of them
   points (only [mark] declares an exception, and no generic one is
   injected).  Fifty change points over the 10,000-opportunity horizon
   put several inside the run, after fork points: a forked run must
   demote threads where a fresh one does. *)
let pct_src =
  {|
class Ctr {
  field n;
  method init() { this.n = 0; return this; }
  method inc() { this.n = this.n + 1; return this.n; }
  method mark(k) throws IllegalStateException { this.n = this.n + k; return this.n; }
}
class Spin {
  field c; field k;
  method init(c, k) { this.c = c; this.k = k; return this; }
  method run() {
    for (var i = 0; i < 1500; i = i + 1) {
      this.c.inc();
      if (i % 300 == 0) {
        try { this.c.mark(this.k); } catch (IllegalStateException e) { print(this.k); }
      }
    }
    return this.c.n;
  }
}
function main() {
  var c = new Ctr();
  var s1 = new Spin(c, 1);
  var s2 = new Spin(c, 2);
  var t1 = spawn s1.run();
  var t2 = spawn s2.run();
  println(join(t1) + join(t2));
  return 0;
}
|}

let test_pct_change_points () =
  let config = { Config.default with Config.runtime_exceptions = [] } in
  let specs = [ "pct:50:7"; "pct:50:123" ] in
  let schedules = List.map (fun s -> (s, Option.get (Sched.policy_of_string s))) specs in
  let _, plain = conc_walk_vs_fresh ~config ~schedules ~what:"pct change points" pct_src in
  List.iter
    (fun (spec, policy) ->
      let vm, _ = baseline_vm plain policy in
      Alcotest.(check bool) (spec ^ ": thousands of opportunities") true (vm.Vm.calls > 3000);
      Alcotest.(check bool) (spec ^ ": change points preempt") true
        (vm.Vm.sched_preemptions > 2))
    schedules

(* A suffix that spins inside the worker thread: with the step limit
   between the uninjected run's cost and the spinning suffix's, the
   first run to overrun is the one the fresh loop stops at. *)
let conc_spin_src =
  {|
class W {
  field n;
  method init() { this.n = 0; return this; }
  method work(k) { this.n = this.n + k; return this.n; }
  method run() {
    var i = 0;
    while (i < 4) {
      try { this.work(i); } catch (RuntimeException e) {
        var j = 0;
        while (j < 400 * i) { j = j + 1; }
      }
      i = i + 1;
    }
    return this.n;
  }
}
function main() {
  var w = new W();
  var t = spawn w.run();
  w.work(5);
  println(join(t));
  return 0;
}
|}

let test_conc_step_limit () =
  let program, plain = compile_src conc_spin_src in
  let config = Config.default in
  let analyzer = Analyzer.analyze config program in
  List.iter
    (fun flavor ->
      let compiled = Detect.compile ~plain flavor program in
      List.iter
        (fun ((spec, _) as schedule) ->
          let label = Printf.sprintf "%s, %s" (Detect.flavor_name flavor) spec in
          (* the uninjected instrumented run's cost, plus less than one
             injected run's spin *)
          let last = ref None in
          ignore
            (Detect.run_once ~schedule compiled config analyzer
               ~prepare:(fun vm -> last := Some vm)
               ~threshold:0);
          let setup = set_step_limit ((Option.get !last).Vm.steps + 1_000) in
          let failure f =
            match f () with
            | _ -> Alcotest.failf "%s: no run overran the step limit" label
            | exception Detect.Detection_error m -> m
          in
          let expected = failure (fun () -> fresh_loop ~setup ~schedule compiled config analyzer) in
          Alcotest.(check string) label expected
            (failure (fun () ->
                 Detect.walk ~prepare:setup ~schedule compiled config analyzer
                   ~baseline_output:"")))
        schedules)
    flavors

(* The worker re-enters the program from a hook, so under the slice
   schedules it is preempted with part of its continuation on its
   fiber's native stack: main's points reached meanwhile cannot copy
   it, nor can the worker's own points inside the hook.  Every schedule
   fails with the typed error. *)
let conc_reentry_src =
  {|
class W {
  field n;
  method init() { this.n = 0; return this; }
  method work() { this.n = this.n + 1; return this.n; }
  method twice() { this.work(); return this.work(); }
  method run() {
    for (var i = 0; i < 3; i = i + 1) { __call(this); this.work(); }
    return this.n;
  }
}
function main() {
  var w = new W();
  var v = new W();
  var t = spawn w.run();
  for (var i = 0; i < 3; i = i + 1) { v.work(); }
  println(join(t) + v.n);
  return 0;
}
|}

let test_conc_native_reentry () =
  let program, plain = compile_src conc_reentry_src in
  let analyzer = Analyzer.analyze Config.default program in
  List.iter
    (fun flavor ->
      let compiled = Detect.compile ~plain flavor program in
      List.iter
        (fun ((spec, _) as schedule) ->
          let what = Printf.sprintf "%s, %s" (Detect.flavor_name flavor) spec in
          match walk_error ~schedule compiled analyzer with
          | None -> Alcotest.failf "%s: a point under native re-entry forked" what
          | Some m ->
            Alcotest.(check bool) (what ^ ": " ^ m) true
              (String.ends_with ~suffix:reentry_error m))
        schedules)
    flavors

let suite =
  List.map
    (fun (app : Registry.t) ->
      (* RegExp's fresh-VM oracle alone takes about a minute *)
      let speed = if app.Registry.name = "RegExp" then `Slow else `Quick in
      Alcotest.test_case ("walk == fresh VMs: " ^ app.Registry.name) speed (check_app app))
    sequential_apps
  @ List.map
      (fun (app : Registry.t) ->
        let speed = if app.Registry.name = "RegExp" then `Slow else `Quick in
        Alcotest.test_case ("masked program, walk == fresh VMs: " ^ app.Registry.name) speed
          (check_masked app))
      sequential_apps
  @ [ Alcotest.test_case "suffix overruns the step limit" `Quick test_step_limit;
      Alcotest.test_case "max_runs exceeded" `Quick test_max_runs;
      Alcotest.test_case "suffix writes a global" `Quick test_suffix_writes_global;
      Alcotest.test_case "suffix allocates" `Quick test_suffix_allocates;
      Alcotest.test_case "open prefix snapshot exits later" `Quick test_open_prefix_snapshot;
      Alcotest.test_case "break across frames, forked mid-loop" `Quick test_cross_frame_break;
      Alcotest.test_case "native re-entry is a typed error" `Quick test_native_reentry ]
  @ List.map
      (fun (app : Registry.t) ->
        Alcotest.test_case ("walk == fresh VMs, swept: " ^ app.Registry.name) `Quick
          (check_conc_app app))
      conc_apps
  @ [ Alcotest.test_case "forked with a monitor held and waiters queued" `Quick
        test_monitor_waiters;
      Alcotest.test_case "forked with a thread in join and one unstarted" `Quick
        test_join_and_unstarted;
      Alcotest.test_case "forked with an unjoined crash" `Quick test_unjoined_crash;
      Alcotest.test_case "deadlock only in the suffix" `Quick test_suffix_deadlock;
      Alcotest.test_case "PCT change points after the fork" `Quick test_pct_change_points;
      Alcotest.test_case "step limit in a concurrent suffix" `Quick test_conc_step_limit;
      Alcotest.test_case "another thread under native re-entry is a typed error" `Quick
        test_conc_native_reentry ]
