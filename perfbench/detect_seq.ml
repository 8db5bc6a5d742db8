(* detect-seq: cold in-process detection with the CLI defaults over ten
   sequential applications — the paper's core operation.  Each
   operation is one [Detect.run] plus [Classify.classify] of an app
   parsed during set-up; no server, production or scheduler code runs.
   The seed orders the apps in every pass. *)

open Failatom_core
open Failatom_apps
open Common

let apps =
  [ "RBTree"; "RBMap"; "HashedMap"; "CircularList"; "Dynarray"; "LinkedList";
    "xml2Cviasc2"; "adaptorChain"; "stdQ"; "Synthetic" ]

(* What [failatom detect] runs: bytecode engine (the library default),
   coalescing pruner, default snapshot mode, the suite's flavor. *)
let config = { Config.default with Config.prune = Config.Prune_coalesce }

(* One pass over all apps takes ~4.8 s on the reference machine. *)
let passes_per_second = 0.2

(* ---- the committed verdict table ---- *)

let table_file = Filename.concat "perfbench" "expected_detect.txt"

(* name, injections, atomic, conditional, pure *)
let row_of name (d : Detect.result) c =
  let k = Classify.method_counts c in
  Printf.sprintf "%s %d %d %d %d" name d.Detect.injections k.Classify.atomic
    k.Classify.conditional k.Classify.pure

let load_table () =
  In_channel.with_open_text table_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l -> (List.hd (String.split_on_char ' ' l), l))

let check table name d c =
  d.Detect.transparent
  && (name <> Registry.synthetic.Registry.name
     || List.for_all (fun (id, v) -> Classify.verdict c id = Some v) Synthetic.expectations)
  && List.assoc_opt name table = Some (row_of name d c)

(* Set-up: parse every app, and compile and run it once uninstrumented,
   so a program that no longer runs fails before anything is timed. *)
let prepare table =
  List.map
    (fun name ->
      let app = Option.get (Registry.find name) in
      let program =
        Spans.with_span "minilang.parse" (fun _ ->
            Failatom_minilang.Minilang.parse app.Registry.source)
      in
      let open Failatom_minilang in
      ignore (Compile.run_main (Compile.instantiate (Compile.image program)));
      { Detect_loop.name;
        program;
        flavor = Harness.flavor_of_suite app.Registry.suite;
        config;
        check = check table name })
    apps

(* Prints the table the checks compare against; regenerate it only when
   the program's verdicts are meant to change. *)
let print_table () =
  print_string "# app injections atomic conditional pure (detect-seq checks)\n";
  List.iter
    (fun (t : Detect_loop.target) ->
      let d = Detect.run ~config ~flavor:t.flavor t.program in
      print_endline (row_of t.name d (Classify.classify d)))
    (prepare [])

let run ~seed ~seconds ~trace =
  let table = load_table () in
  let targets, setup =
    repeat_setup ~reps:5 (fun () -> with_tracing trace (fun () -> prepare table))
  in
  let passes = work_units ~seconds ~per_second:passes_per_second in
  let o =
    Detect_loop.run ~seed ~trace ~op_name:"detect-seq.op" (List.init passes (fun _ -> targets))
  in
  Detect_loop.result ~setup
    ~extra_layer:
      [ m "minilang.parse_ms" (ms_of_ns (Spans.total_ns "minilang.parse" (Spans.all ()))) "ms" ]
    ~info:[ ("passes", string_of_int passes); ("apps", String.concat "," apps) ]
    o
