(* The pipeline's core guarantees, property-tested over randomly
   generated programs.

   A generator produces small class-based programs whose methods are
   arbitrary sequences of the primitives that matter to failure
   atomicity — field mutations, calls to earlier methods, allocations,
   and guard calls — together with a driver that exercises every
   method.  Over these programs we check the reproduction's two central
   properties:

   1. closure: after masking, re-detection finds no failure non-atomic
      method with an original name (the paper's §4.2 claim),
   2. flavor equivalence: the source-weaving and load-time-filter
      implementations assign identical verdicts (paper §5),
   3. snapshot equivalence: eager and copy-on-write snapshot modes
      assign bitwise-identical marks (the cow fast path is an
      optimization, never a semantic change),
   4. masking idempotence: masking an already-masked program changes no
      verdicts, and
   5. image determinism: repeated instantiations of one compiled image
      produce identical outputs, and
   6. prefix sharing: the walk that forks every injected run from its
      injection point produces the run records of fresh VMs.

   Baseline determinism: generated validations can never fire on the
   real path (the [boom] try/catch handles its exception locally and
   deterministically), so every generated program runs clean
   uninstrumented. *)

open Failatom_core

type action =
  | Mutate of int (* this.f<i> = this.f<i> + 1 *)
  | Call of int (* this.m<j>() for j < current index *)
  | Alloc (* var t<n> = new Obj(...) *)
  | Guard (* this.guard() — validating leaf, never fires in baseline *)
  | CatchCall of int
      (* try { this.m<j>(); } catch (RuntimeException e) — swallows
         injected runtime exceptions but not injected errors *)
  | CatchBoom
      (* try { this.boom(); } catch — a real exceptional return on the
         baseline path, handled locally so the baseline stays clean *)

let gen_method_body ~index =
  let open QCheck2.Gen in
  let action =
    oneof
      ([ map (fun i -> Mutate i) (int_range 0 2);
         return Alloc;
         return Guard;
         return CatchBoom ]
      @ (if index > 0 then
           [ map (fun j -> Call j) (int_range 0 (index - 1));
             map (fun j -> CatchCall j) (int_range 0 (index - 1)) ]
         else []))
  in
  list_size (1 -- 5) action

let gen_program_spec =
  QCheck2.Gen.(
    int_range 1 5 >>= fun n ->
    let rec build i acc =
      if i = n then return (List.rev acc)
      else gen_method_body ~index:i >>= fun body -> build (i + 1) (body :: acc)
    in
    build 0 [])

let render_spec (spec : action list list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    {|
class Obj {
  field tag;
  method init(tag) { this.tag = tag; return this; }
}
class W {
  field f0;
  field f1;
  field f2;
  method init() { this.f0 = 0; this.f1 = 0; this.f2 = 0; return this; }
  method guard() throws IllegalStateException {
    if (this.f0 < 0 - 1000000) { throw new IllegalStateException("impossible"); }
    return null;
  }
  method boom() throws IllegalStateException {
    throw new IllegalStateException("boom");
  }
|};
  List.iteri
    (fun i body ->
      Buffer.add_string buf (Printf.sprintf "  method m%d() {\n" i);
      List.iteri
        (fun k action ->
          Buffer.add_string buf
            (match action with
             | Mutate f -> Printf.sprintf "    this.f%d = this.f%d + 1;\n" f f
             | Call j -> Printf.sprintf "    this.m%d();\n" j
             | Alloc -> Printf.sprintf "    var t%d = new Obj(%d);\n" k k
             | Guard -> "    this.guard();\n"
             | CatchCall j ->
               Printf.sprintf
                 "    try { this.m%d(); } catch (RuntimeException e%d) { this.f0 \
                  = this.f0 + 1; }\n"
                 j k
             | CatchBoom ->
               Printf.sprintf
                 "    try { this.boom(); } catch (IllegalStateException e%d) { \
                  this.f1 = this.f1 + 1; }\n"
                 k))
        body;
      Buffer.add_string buf "    return null;\n  }\n")
    spec;
  Buffer.add_string buf "}\nfunction main() {\n  var w = new W();\n";
  List.iteri (fun i _ -> Buffer.add_string buf (Printf.sprintf "  w.m%d();\n" i)) spec;
  Buffer.add_string buf "  println(w.f0 + \"/\" + w.f1 + \"/\" + w.f2);\n  return 0;\n}\n";
  Buffer.contents buf

let print_spec spec = render_spec spec

let verdict_map classification =
  List.map
    (fun (r : Classify.method_report) ->
      (Method_id.to_string r.Classify.id, Classify.verdict_name r.Classify.verdict))
    (Classify.reports classification)

(* Nightly CI sets QCHECK_LONG=1 (and a rotating QCHECK_SEED), which
   multiplies every property's count by this factor. *)
let long_factor = 10

let prop_masking_closes =
  QCheck2.Test.make ~name:"masking closes on random programs" ~count:25
    ~long_factor ~print:print_spec gen_program_spec
    (fun spec ->
      let program = Failatom_minilang.Minilang.parse (render_spec spec) in
      let config = Config.default in
      let outcome = Mask.correct ~config program in
      let d2 =
        Detect.run ~config ~prepare:(Mask.register_hooks config) outcome.Mask.corrected
      in
      let residual =
        List.filter
          (fun (id : Method_id.t) -> Source_weaver.demangle id.Method_id.name = None)
          (Classify.non_atomic_methods (Classify.classify d2))
      in
      if residual = [] then true
      else
        QCheck2.Test.fail_reportf "residual non-atomic: %s"
          (String.concat ", " (List.map Method_id.to_string residual)))

let prop_flavor_equivalence =
  QCheck2.Test.make ~name:"flavors agree on random programs" ~count:25
    ~long_factor ~print:print_spec gen_program_spec
    (fun spec ->
      let program = Failatom_minilang.Minilang.parse (render_spec spec) in
      let via flavor = verdict_map (Classify.classify (Detect.run ~flavor program)) in
      let s = via Detect.Source_weaving and b = via Detect.Load_time_filters in
      if s = b then true
      else
        QCheck2.Test.fail_reportf "source=%s@.binary=%s"
          (String.concat ";" (List.map (fun (m, v) -> m ^ "=" ^ v) s))
          (String.concat ";" (List.map (fun (m, v) -> m ^ "=" ^ v) b)))

(* Every run of the instrumented program (probe run) reproduces the
   baseline output: instrumentation transparency on random shapes. *)
let prop_transparent =
  QCheck2.Test.make ~name:"instrumentation transparent on random programs" ~count:25
    ~long_factor ~print:print_spec gen_program_spec
    (fun spec ->
      let program = Failatom_minilang.Minilang.parse (render_spec spec) in
      (Detect.run program).Detect.transparent)

(* Copy-on-write and eager snapshots are the same detector: every run
   record — injection point, marks, escape, output — must be bitwise
   identical, not merely equivalent verdicts. *)
let prop_snapshot_equivalence =
  QCheck2.Test.make ~name:"cow and eager snapshots mark identically" ~count:25
    ~long_factor ~print:print_spec gen_program_spec
    (fun spec ->
      let program = Failatom_minilang.Minilang.parse (render_spec spec) in
      let via mode =
        Detect.run ~config:{ Config.default with Config.snapshot_mode = mode } program
      in
      let eager = via Config.Snapshot_eager and cow = via Config.Snapshot_cow in
      if eager.Detect.runs = cow.Detect.runs then true
      else QCheck2.Test.fail_reportf "cow marks differ from eager")

(* Masking is a fixed point: the corrected program P_C has no pure
   non-atomic method left under its original name, so correcting it
   again must wrap nothing and leave every verdict unchanged. *)
let prop_masking_idempotent =
  QCheck2.Test.make ~name:"masking is idempotent on random programs" ~count:15
    ~long_factor ~print:print_spec gen_program_spec
    (fun spec ->
      let program = Failatom_minilang.Minilang.parse (render_spec spec) in
      let config = Config.default in
      let prepare = Mask.register_hooks config in
      let once = Mask.correct ~config program in
      let twice = Mask.correct ~config ~prepare once.Mask.corrected in
      if not (Method_id.Set.is_empty twice.Mask.wrapped) then
        QCheck2.Test.fail_reportf "re-masking wrapped: %s"
          (String.concat ", "
             (List.map Method_id.to_string
                (Method_id.Set.elements twice.Mask.wrapped)))
      else
        let verdicts outcome =
          verdict_map
            (Classify.classify
               (Detect.run ~config ~prepare outcome.Mask.corrected))
        in
        if verdicts once = verdicts twice then true
        else QCheck2.Test.fail_reportf "verdicts changed under re-masking")

(* One compiled image, many instantiations: repeated runs must produce
   identical outputs (the contract behind failatom run --times N). *)
let prop_image_determinism =
  QCheck2.Test.make ~name:"image instantiations are deterministic" ~count:25
    ~long_factor ~print:print_spec gen_program_spec
    (fun spec ->
      let program = Failatom_minilang.Minilang.parse (render_spec spec) in
      let module C = Failatom_minilang.Compile in
      let run_image image =
        let vm = C.instantiate image in
        ignore (C.run_main vm);
        Failatom_minilang.Minilang.output vm
      in
      let image = C.image program in
      let first = run_image image in
      List.for_all (fun o -> String.equal o first)
        [ run_image image; run_image image; run_image (C.image program) ])

(* Forking injected runs off one walk is an optimization, never a
   semantic change: [Detect.run] walks, and Listing 1's loop runs every
   threshold on a fresh VM ([Detect.run_once]).  Both flavors, exact
   and coalescing walks. *)
let prop_walk_equals_fresh =
  QCheck2.Test.make ~name:"prefix-sharing walk equals fresh VMs" ~count:25
    ~long_factor ~print:print_spec gen_program_spec
    (fun spec ->
      let program = Failatom_minilang.Minilang.parse (render_spec spec) in
      List.for_all
        (fun (flavor, prune) ->
          let config = { Config.default with Config.prune } in
          let s = Detect.set_up ~config ~flavor program in
          let walked =
            Detect.run ~config ~flavor ~plain:s.Detect.s_plain ~compiled:s.Detect.s_compiled
              program
          in
          let fresh =
            Test_prefix_walk.fresh_loop s.Detect.s_compiled config s.Detect.s_analyzer
          in
          let probe = List.nth fresh (List.length fresh - 1) in
          if walked.Detect.runs = fresh
             && walked.Detect.transparent
                = String.equal probe.Marks.output s.Detect.s_profile.Profile.output
          then true
          else
            QCheck2.Test.fail_reportf "%s, %s: walked runs differ from fresh runs"
              (Detect.flavor_name flavor) (Config.prune_name prune))
        [ (Detect.Source_weaving, Config.Prune_off);
          (Detect.Source_weaving, Config.Prune_coalesce);
          (Detect.Load_time_filters, Config.Prune_off);
          (Detect.Load_time_filters, Config.Prune_coalesce) ])

let suite =
  [ QCheck_alcotest.to_alcotest prop_masking_closes;
    QCheck_alcotest.to_alcotest prop_flavor_equivalence;
    QCheck_alcotest.to_alcotest prop_transparent;
    QCheck_alcotest.to_alcotest prop_snapshot_equivalence;
    QCheck_alcotest.to_alcotest prop_masking_idempotent;
    QCheck_alcotest.to_alcotest prop_image_determinism;
    QCheck_alcotest.to_alcotest prop_walk_equals_fresh ]
