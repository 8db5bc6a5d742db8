(* The failatom.resilience/1 artifact.

   The deterministic core (counts, verdicts, provenance) and the
   nondeterministic timings live under separate keys so consumers can
   strip the latter and get byte-stable documents. *)

open Failatom_core

let schema_id = "failatom.resilience/1"

type meth_row = {
  r_id : Method_id.t;
  r_calls : int;
  r_hits : int;
  r_fired : int;
  r_validated : int;
  r_interfered : int;
  r_failed : int;
  r_diff : string option;
}

type timing_row = { t_id : Method_id.t; t_wrap_ns : int; t_rollback_ns : int }

type t = {
  program_digest : string;
  rollback : string;
  seed : int;
  rate : int;
  point : string;
  runs : int;
  retries : int;
  rows : meth_row list;
  timings : timing_row list;
}

let build ~program_digest ~armed ?perturb ~runs () =
  let pstats =
    match perturb with
    | None -> Method_id.Map.empty
    | Some p ->
      List.fold_left
        (fun m (id, s) -> Method_id.Map.add id s m)
        Method_id.Map.empty (Perturb.per_method p)
  in
  let rows =
    List.map
      (fun (id, (a : Armed.method_stats)) ->
        let fired, validated, interfered, failed, diff =
          match Method_id.Map.find_opt id pstats with
          | None -> (0, 0, 0, 0, None)
          | Some (s : Perturb.method_stats) ->
            (s.Perturb.pv_fired, s.Perturb.pv_validated,
             s.Perturb.pv_interfered, s.Perturb.pv_failed, s.Perturb.pv_diff)
        in
        { r_id = id;
          r_calls = a.Armed.ms_calls;
          r_hits = a.Armed.ms_hits;
          r_fired = fired;
          r_validated = validated;
          r_interfered = interfered;
          r_failed = failed;
          r_diff = diff })
      (Armed.per_method armed)
  in
  let timings =
    List.map
      (fun (id, (a : Armed.method_stats)) ->
        { t_id = id;
          t_wrap_ns = a.Armed.ms_wrap_ns;
          t_rollback_ns = a.Armed.ms_rollback_ns })
      (Armed.per_method armed)
  in
  { program_digest;
    rollback = "cow";
    seed = (match perturb with None -> 0 | Some p -> Perturb.seed_of p);
    rate = (match perturb with None -> 0 | Some p -> Perturb.rate_of p);
    point =
      (match perturb with
      | None -> Perturb.point_name Perturb.At_exit
      | Some p -> Perturb.point_name (Perturb.point_of p));
    runs;
    retries = (match perturb with None -> 0 | Some p -> Perturb.retries p);
    rows;
    timings }

let sum f t = List.fold_left (fun n r -> n + f r) 0 t.rows
let calls t = sum (fun r -> r.r_calls) t
let hits t = sum (fun r -> r.r_hits) t
let fired t = sum (fun r -> r.r_fired) t
let validated t = sum (fun r -> r.r_validated) t
let interfered t = sum (fun r -> r.r_interfered) t
let failed t = sum (fun r -> r.r_failed) t

let hit_rate t =
  let c = calls t in
  if c = 0 then 0.0 else float_of_int (hits t) /. float_of_int c

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let row_json r =
  Json.Obj
    ([ ("method", Json.Str (Method_id.to_string r.r_id));
       ("calls", Json.Int r.r_calls);
       ("hits", Json.Int r.r_hits);
       ("fired", Json.Int r.r_fired);
       ("validated", Json.Int r.r_validated);
       ("interfered", Json.Int r.r_interfered);
       ("failed", Json.Int r.r_failed) ]
    @ match r.r_diff with None -> [] | Some d -> [ ("diff", Json.Str d) ])

let timing_json tr =
  Json.Obj
    [ ("method", Json.Str (Method_id.to_string tr.t_id));
      ("wrap_ns", Json.Int tr.t_wrap_ns);
      ("rollback_ns", Json.Int tr.t_rollback_ns) ]

let json_of t =
  Json.Obj
    [ ("schema", Json.Str schema_id);
      ("program_digest", Json.Str t.program_digest);
      ("rollback", Json.Str t.rollback);
      ("seed", Json.Int t.seed);
      ("rate", Json.Int t.rate);
      ("point", Json.Str t.point);
      ("runs", Json.Int t.runs);
      ("retries", Json.Int t.retries);
      ("totals",
       Json.Obj
         [ ("calls", Json.Int (calls t));
           ("hits", Json.Int (hits t));
           ("fired", Json.Int (fired t));
           ("validated", Json.Int (validated t));
           ("interfered", Json.Int (interfered t));
           ("failed", Json.Int (failed t)) ]);
      ("methods", Json.List (List.map row_json t.rows));
      ("timings", Json.List (List.map timing_json t.timings)) ]

let to_json t = Json.to_string (json_of t)

let ( let* ) = Result.bind

let require name = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "resilience: missing or ill-typed field %S" name)

let method_id_of_string s =
  Result.map_error
    (fun _ -> Printf.sprintf "resilience: malformed method id %S" s)
    (Method_id.of_string s)

let row_of_json j =
  let* s = require "methods.method" (Json.str_member "method" j) in
  let* r_id = method_id_of_string s in
  let* r_calls = require "methods.calls" (Json.int_member "calls" j) in
  let* r_hits = require "methods.hits" (Json.int_member "hits" j) in
  let* r_fired = require "methods.fired" (Json.int_member "fired" j) in
  let* r_validated = require "methods.validated" (Json.int_member "validated" j) in
  let* r_interfered =
    require "methods.interfered" (Json.int_member "interfered" j)
  in
  let* r_failed = require "methods.failed" (Json.int_member "failed" j) in
  Ok { r_id; r_calls; r_hits; r_fired; r_validated; r_interfered; r_failed;
       r_diff = Json.str_member "diff" j }

let timing_of_json j =
  let* s = require "timings.method" (Json.str_member "method" j) in
  let* t_id = method_id_of_string s in
  let* t_wrap_ns = require "timings.wrap_ns" (Json.int_member "wrap_ns" j) in
  let* t_rollback_ns =
    require "timings.rollback_ns" (Json.int_member "rollback_ns" j)
  in
  Ok { t_id; t_wrap_ns; t_rollback_ns }

let list_of name parse j =
  let* items = require name (Json.list_member name j) in
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* v = parse item in
      Ok (v :: acc))
    (Ok []) items
  |> Result.map List.rev

let of_json j =
  let* schema = require "schema" (Json.str_member "schema" j) in
  if not (String.equal schema schema_id) then
    Error
      (Printf.sprintf "resilience: unsupported schema %S (want %S)" schema
         schema_id)
  else
    let* program_digest =
      require "program_digest" (Json.str_member "program_digest" j)
    in
    let* rollback = require "rollback" (Json.str_member "rollback" j) in
    let* seed = require "seed" (Json.int_member "seed" j) in
    let* rate = require "rate" (Json.int_member "rate" j) in
    let* point = require "point" (Json.str_member "point" j) in
    let* runs = require "runs" (Json.int_member "runs" j) in
    let* retries = require "retries" (Json.int_member "retries" j) in
    let* rows = list_of "methods" row_of_json j in
    let* timings = list_of "timings" timing_of_json j in
    Ok { program_digest; rollback; seed; rate; point; runs; retries; rows; timings }

let of_string s =
  match Json.of_string s with
  | exception Json.Parse_error msg -> Error ("resilience: " ^ msg)
  | j -> of_json j

let save_file t path =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "failatom-resilience" ".tmp" in
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

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_ns ppf ns =
  if ns >= 1_000_000_000 then
    Format.fprintf ppf "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then
    Format.fprintf ppf "%.1fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else Format.fprintf ppf "%dns" ns

let pp ppf t =
  let timing_of id =
    List.find_opt (fun tr -> Method_id.equal tr.t_id id) t.timings
  in
  Format.fprintf ppf "resilience scorecard (%s rollback, %d run%s)@." t.rollback
    t.runs
    (if t.runs = 1 then "" else "s");
  Format.fprintf ppf "  program %s@." t.program_digest;
  if t.rate > 0 then
    Format.fprintf ppf "  canary: seed %d, %d/1000 calls, at %s@." t.seed t.rate
      t.point;
  Format.fprintf ppf "  mask hit rate: %d/%d (%.2f%%)@." (hits t) (calls t)
    (100.0 *. hit_rate t);
  Format.fprintf ppf
    "  perturbations: %d fired, %d validated, %d interfered, %d failed, %d retries@."
    (fired t) (validated t) (interfered t) (failed t) t.retries;
  Format.fprintf ppf "  %-28s %8s %6s %6s %6s %6s %6s %10s %12s@." "method"
    "calls" "hits" "fired" "valid" "intf" "fail" "wrap" "rollback";
  List.iter
    (fun r ->
      let wrap_ns, rollback_ns =
        match timing_of r.r_id with
        | Some tr -> (tr.t_wrap_ns, tr.t_rollback_ns)
        | None -> (0, 0)
      in
      let ns_str ns = Format.asprintf "%a" pp_ns ns in
      Format.fprintf ppf "  %-28s %8d %6d %6d %6d %6d %6d %10s %12s@."
        (Method_id.to_string r.r_id)
        r.r_calls r.r_hits r.r_fired r.r_validated r.r_interfered r.r_failed
        (ns_str wrap_ns) (ns_str rollback_ns);
      match r.r_diff with
      | Some d -> Format.fprintf ppf "    first failed validation at %s@." d
      | None -> ())
    t.rows
