(* The failatom.plan/1 artifact: detection's output contract for the
   production runtime.

   Rendering is deterministic — targets and per-method verdicts are
   sorted, field order is fixed — so the same detection always produces
   the same bytes and plans can be diffed or content-addressed.  Parsing
   is strict on required fields (a plan missing its digest must never
   arm) and lenient on unknown ones (additive extensions from newer
   producers are ignored). *)

open Failatom_core
module ML = Failatom_minilang

let schema_id = "failatom.plan/1"

type meth = { pm_id : Method_id.t; pm_verdict : Classify.verdict; pm_calls : int }

type t = {
  program_digest : string;
  config_fingerprint : string;
  flavor : string;
  wrap_policy : Config.wrap_policy;
  injections : int;
  targets : Method_id.t list;
  methods : meth list;
}

let build ~config ~flavor ~program ~detection:(d : Detect.result)
    ~classification =
  let targets =
    Method_id.Set.elements (Mask.targets config classification)
  in
  let methods =
    List.map
      (fun (r : Classify.method_report) ->
        { pm_id = r.Classify.id;
          pm_verdict = r.Classify.verdict;
          pm_calls = r.Classify.calls })
      (Classify.reports classification)
  in
  let methods =
    List.sort (fun a b -> Method_id.compare a.pm_id b.pm_id) methods
  in
  { program_digest = ML.Minilang.program_digest program;
    config_fingerprint = Config.fingerprint config;
    flavor = Detect.flavor_wire_name flavor;
    wrap_policy = config.Config.wrap_policy;
    injections = d.Detect.injections;
    targets;
    methods }

let target_set t = Method_id.Set.of_list t.targets

let validate ?config t ~program_digest =
  if not (String.equal t.program_digest program_digest) then
    Error
      (Printf.sprintf
         "stale plan: computed for program digest %s, current program is %s"
         t.program_digest program_digest)
  else
    match config with
    | Some c when not (String.equal t.config_fingerprint (Config.fingerprint c))
      ->
      Error
        (Printf.sprintf
           "stale plan: computed under config %s, current config is %s"
           t.config_fingerprint (Config.fingerprint c))
    | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let method_id_json (id : Method_id.t) = Json.Str (Method_id.to_string id)

let meth_json m =
  Json.Obj
    [ ("method", method_id_json m.pm_id);
      ("verdict", Json.Str (Classify.verdict_wire_name m.pm_verdict));
      ("calls", Json.Int m.pm_calls) ]

let json_of t =
  Json.Obj
    [ ("schema", Json.Str schema_id);
      ("program_digest", Json.Str t.program_digest);
      ("config_fingerprint", Json.Str t.config_fingerprint);
      ("flavor", Json.Str t.flavor);
      ("wrap_policy", Json.Str (Config.wrap_policy_name t.wrap_policy));
      ("injections", Json.Int t.injections);
      ("targets", Json.List (List.map method_id_json t.targets));
      ("methods", Json.List (List.map meth_json t.methods)) ]

let to_json t = Json.to_string (json_of t)

let ( let* ) = Result.bind

let require name = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "plan: missing or ill-typed field %S" name)

let method_id_of_string s =
  Result.map_error
    (fun _ -> Printf.sprintf "plan: malformed method id %S" s)
    (Method_id.of_string s)

let method_id_list name j =
  let* items = require name (Json.list_member name j) in
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* s = require name (Json.to_str item) in
      let* id = method_id_of_string s in
      Ok (id :: acc))
    (Ok []) items
  |> Result.map List.rev

let meth_of_json j =
  let* s = require "methods.method" (Json.str_member "method" j) in
  let* pm_id = method_id_of_string s in
  let* v = require "methods.verdict" (Json.str_member "verdict" j) in
  let* pm_verdict =
    match Classify.verdict_of_wire_name v with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "plan: unknown verdict %S" v)
  in
  let* pm_calls = require "methods.calls" (Json.int_member "calls" j) in
  Ok { pm_id; pm_verdict; pm_calls }

let of_json j =
  let* schema = require "schema" (Json.str_member "schema" j) in
  if not (String.equal schema schema_id) then
    Error (Printf.sprintf "plan: unsupported schema %S (want %S)" schema schema_id)
  else
    let* program_digest =
      require "program_digest" (Json.str_member "program_digest" j)
    in
    let* config_fingerprint =
      require "config_fingerprint" (Json.str_member "config_fingerprint" j)
    in
    let* flavor = require "flavor" (Json.str_member "flavor" j) in
    let* policy = require "wrap_policy" (Json.str_member "wrap_policy" j) in
    let* wrap_policy =
      match Config.wrap_policy_of_name policy with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "plan: unknown wrap policy %S" policy)
    in
    let* injections = require "injections" (Json.int_member "injections" j) in
    let* targets = method_id_list "targets" j in
    let* methods_json = require "methods" (Json.list_member "methods" j) in
    let* methods =
      List.fold_left
        (fun acc m ->
          let* acc = acc in
          let* m = meth_of_json m in
          Ok (m :: acc))
        (Ok []) methods_json
      |> Result.map List.rev
    in
    Ok
      { program_digest; config_fingerprint; flavor; wrap_policy; injections;
        targets; methods }

let of_string s =
  match Json.of_string s with
  | exception Json.Parse_error msg -> Error ("plan: " ^ msg)
  | j -> of_json j

let save_file t path =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "failatom-plan" ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n');
  Sys.rename tmp path

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> of_string (String.trim contents)
