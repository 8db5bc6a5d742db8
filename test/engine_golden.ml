(* The golden engine table: committed observables of the execution
   engine on every bundled application, checked by test_bytecode.

   Each row pins one observable that must never drift without a
   deliberate decision:

   - [plain <name>]: a plain run of [main] — the step, call,
     inline-cache and allocation counters, an MD5 of the output, and the
     result (value, escaping MiniLang exception, or runtime error);
   - [detect <name> <flavor>]: an MD5 of the full detection run log
     ([Run_log.save (Detect.run ~flavor prog)]) for both flavors;
   - [sweep WorkQueue]: an MD5 of the WorkQueue run log under the
     [--schedules 4] sweep (coop plus three slice seeds).

   Logs are stored as digests (the full set is several megabytes).
   The table was produced by, and reproduced bit-for-bit on, two
   independent interpreters — a closure-tree compiler and the
   flat-bytecode engine — so it records semantics, not one
   implementation's accidents.  To regenerate after an intentional
   change to counters or run logs:

     cd test && GOLDEN_UPDATE=1 ../_build/default/test/test_main.exe test bytecode *)

open Failatom_runtime
open Failatom_minilang
open Failatom_core
open Failatom_apps

let path = Filename.concat "golden" "engine_runs.txt"

type plain = {
  out : string;
  steps : int;
  calls : int;
  ic_hits : int;
  ic_misses : int;
  allocs : int;
  result : string;
}

let run_plain src =
  let vm = Compile.instantiate (Compile.image (Minilang.parse src)) in
  let result =
    match Compile.run_main vm with
    | v -> "value " ^ Value.to_display_string v
    | exception Vm.Mini_raise ev -> "raise " ^ ev.Vm.exn_class
    | exception Compile.Runtime_error (msg, pos) ->
      Printf.sprintf "error %s @%d:%d" msg pos.Ast.line pos.Ast.col
  in
  { out = Buffer.contents vm.Vm.out;
    steps = vm.Vm.steps;
    calls = vm.Vm.calls;
    ic_hits = vm.Vm.ic_hits;
    ic_misses = vm.Vm.ic_misses;
    allocs = Heap.allocations vm.Vm.heap;
    result }

let md5 s = Digest.to_hex (Digest.string s)

(* Programs beyond the catalog that stress the inline caches: one call
   site alternating receiver classes, an inherited getter over two field
   layouts, and an initializer inherited by a [new] site. *)
let probes =
  [ ( "ic-polymorphic-site",
      {|
class A { method tag() { return 1; } }
class B { method tag() { return 2; } }
function main() {
  var xs = [new A(), new B(), new A(), new B()];
  var s = 0;
  for (var i = 0; i < 20; i = i + 1) {
    s = s + xs[i % 4].tag();
  }
  return s;
}
|} );
    ( "ic-shadowed-field-layout",
      {|
class Base {
  field v;
  method init() { this.v = 10; return this; }
  method get() { return this.v; }
}
class Derived extends Base {
  field w;
  method init() { super.init(); this.w = 5; this.v = 20; return this; }
}
function main() {
  var b = new Base();
  var d = new Derived();
  var s = 0;
  for (var i = 0; i < 10; i = i + 1) {
    s = s + b.get() + d.get();
  }
  return s;
}
|} );
    ( "ic-inherited-init",
      {|
class Base {
  field v;
  method init(v) { this.v = v; return this; }
}
class Sub extends Base { }
function main() {
  var a = new Sub(7);
  var b = new Base(35);
  return a.v + b.v;
}
|} ) ]

let plain_line name r =
  Printf.sprintf
    "plain %s steps=%d calls=%d ic_hits=%d ic_misses=%d allocs=%d out=%s result=%s" name
    r.steps r.calls r.ic_hits r.ic_misses r.allocs (md5 r.out) (String.escaped r.result)

let log_line key log = Printf.sprintf "%s log=%s" key (md5 log)

let sweep_config =
  { Config.default with Config.schedules = [ "coop"; "slice:1"; "slice:2"; "slice:3" ] }

(* Every row as [(key, compute)], in table order: plain runs of the
   catalog and the probes, detection logs, then the sweep log.  A row's
   key is its leading words up to the first [=]-field. *)
let rows : (string * (unit -> string)) list =
  let apps =
    List.map (fun (a : Registry.t) -> (a.Registry.name, a.Registry.source)) Registry.catalog
  in
  List.map
    (fun (name, src) -> ("plain " ^ name, fun () -> plain_line name (run_plain src)))
    (apps @ probes)
  @ List.concat_map
      (fun (name, src) ->
        List.map
          (fun flavor ->
            let key = Printf.sprintf "detect %s %s" name (Detect.flavor_name flavor) in
            ( key,
              fun () -> log_line key (Run_log.save (Detect.run ~flavor (Minilang.parse src))) ))
          [ Detect.Source_weaving; Detect.Load_time_filters ])
      apps
  @ [ ( "sweep WorkQueue",
        fun () ->
          let src = List.assoc "WorkQueue" apps in
          log_line "sweep WorkQueue"
            (Run_log.save (Detect.run ~config:sweep_config (Minilang.parse src))) ) ]

let render () = String.concat "" (List.map (fun (_, f) -> f () ^ "\n") rows)

let key_of_line line =
  let rec leading = function
    | w :: rest when not (String.contains w '=') -> w :: leading rest
    | _ -> []
  in
  String.concat " " (leading (String.split_on_char ' ' line))

(* The committed rows, in file order; rewritten from the current engine
   first when GOLDEN_UPDATE is set. *)
let lines =
  lazy
    (if Sys.getenv_opt "GOLDEN_UPDATE" <> None then
       Out_channel.with_open_bin path (fun oc -> output_string oc (render ()));
     In_channel.with_open_bin path In_channel.input_all
     |> String.split_on_char '\n'
     |> List.filter (fun line -> line <> ""))

(* The committed table, key -> row. *)
let table =
  lazy
    (let tbl = Hashtbl.create 64 in
     List.iter (fun line -> Hashtbl.replace tbl (key_of_line line) line) (Lazy.force lines);
     tbl)

(* The keys of the committed rows, in file order. *)
let committed_keys () = List.map key_of_line (Lazy.force lines)

let check_row key actual =
  match Hashtbl.find_opt (Lazy.force table) key with
  | Some expected -> Alcotest.(check string) key expected actual
  | None -> Alcotest.failf "no row %S in %s" key path

(* Checks one row of the table by recomputing it. *)
let check key = check_row key ((List.assoc key rows) ())

(* Checks a probe's plain row and returns the run for further
   assertions. *)
let check_probe name =
  let r = run_plain (List.assoc name probes) in
  check_row ("plain " ^ name) (plain_line name r);
  r
