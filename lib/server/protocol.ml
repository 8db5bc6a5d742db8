(* The versioned wire protocol of the failatom daemon: newline-delimited
   JSON over a Unix-domain socket.

   On connect the server sends one greeting line identifying itself and
   the protocol revision; the client then sends one request object per
   line and reads one response object per line — except [watch], which
   streams event objects until a terminal event ([done], [error],
   [cancelled], [timeout]) closes the job's story.  Every response
   carries ["ok"]; failures are [{"ok":false,"error":...}].

   This module is purely the wire encoding: typed request/event/result
   values and their (total, error-returning) JSON conversions.  The
   server and client both build on it, so a field added here is
   understood by both ends or by neither. *)

open Failatom_core

let version = "failatom.rpc/1"

let greeting = Json.Obj [ ("server", Json.Str "failatom"); ("rpc", Json.Str version) ]

type mode = Detect | Campaign | Mask | Produce

let mode_name = function
  | Detect -> "detect"
  | Campaign -> "campaign"
  | Mask -> "mask"
  | Produce -> "produce"

let mode_of_name = function
  | "detect" -> Some Detect
  | "campaign" -> Some Campaign
  | "mask" -> Some Mask
  | "produce" -> Some Produce
  | _ -> None

type program_spec =
  | App of string  (* a bundled registry application *)
  | Inline of string  (* full MiniLang source shipped in the request *)

type job_request = {
  mode : mode;
  program : program_spec;
  flavor : Detect.flavor option;
      (* None: the app's suite default, or source weaving for inline *)
  prune : Config.prune;  (* campaign pruning; absent on the wire = off *)
  schedules : string list;
      (* schedule specs crossed with the injection axis for concurrent
         programs; absent on the wire = [] = the config default (coop
         only), so older clients keep their sequential behaviour *)
  wrap_all : bool;  (* Wrap_all_non_atomic instead of Wrap_pure *)
  exception_free : string list;  (* "Class.method" *)
  do_not_wrap : string list;
  jobs : int option;  (* campaign worker domains; server clamps *)
  run_timeout_s : float option;
  (* production (produce-mode) parameters; all absent on the wire for
     the other modes, so older peers interoperate unchanged *)
  plan : string option;  (* failatom.plan/1 JSON text *)
  perturb_rate : int option;  (* canary rate per mille; None/0 = off *)
  perturb_seed : int option;
  perturb_max : int option;
  perturb_point : string option;  (* "entry" | "exit" *)
  times : int option;  (* production runs per job *)
  log : bool;
      (* whether done frames and status replies carry the run log;
         absent on the wire = true, so older clients get full replies *)
}

(* [log = false]: the verdicts travel without the run log, which a
   client that wants it fetches with the [log] op. *)
let default_request mode program =
  { mode;
    program;
    flavor = None;
    prune = Config.Prune_off;
    schedules = [];
    wrap_all = false;
    exception_free = [];
    do_not_wrap = [];
    jobs = None;
    run_timeout_s = None;
    plan = None;
    perturb_rate = None;
    perturb_seed = None;
    perturb_max = None;
    perturb_point = None;
    times = None;
    log = false }

type request =
  | Submit of job_request
  | Status of string  (* job id *)
  | Watch of string
  | Cancel of string
  | Log of string  (* job id *)
  | Stats
  | Shutdown

type counts = { atomic : int; conditional : int; pure : int }

type summary = {
  workers : int;
  executed : int;
  reused : int;
  discarded : int;
  synthesized : int;
  wall_s : float;
}

type job_result = {
  r_mode : mode;
  r_flavor : string;  (* wire flavor name *)
  r_injections : int;
  r_transparent : bool;
  r_non_atomic : (string * string) list;  (* method id, verdict name *)
  r_counts : counts;
  r_log : string;
      (* full Run_log text; "" in produce mode and in log-less replies *)
  r_wrapped : string list;  (* mask mode: wrapped method ids *)
  r_corrected : string option;  (* mask mode: corrected program source *)
  r_summary : summary option;  (* campaign execution statistics *)
  r_resilience : string option;
      (* produce mode: failatom.resilience/1 scorecard JSON *)
}

type event =
  | Ev_state of string  (* "queued" | "running" *)
  | Ev_tick of { completed : int; needed : int option; injections : int }
  | Ev_warning of string
  | Ev_done of { result : job_result; cached : bool }
  | Ev_error of string
  | Ev_cancelled
  | Ev_timeout

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let opt f = function Some v -> f v | None -> Json.Null

let request_to_json = function
  | Submit r ->
    let program =
      match r.program with
      | App name -> Json.Obj [ ("app", Json.Str name) ]
      | Inline src -> Json.Obj [ ("inline", Json.Str src) ]
    in
    Json.Obj
      [ ("cmd", Json.Str "submit");
        ("rpc", Json.Str version);
        ("mode", Json.Str (mode_name r.mode));
        ("program", program);
        ("flavor", opt (fun f -> Json.Str (Detect.flavor_wire_name f)) r.flavor);
        ("prune", Json.Str (Config.prune_name r.prune));
        ("schedules", Json.List (List.map (fun s -> Json.Str s) r.schedules));
        ("wrap_all", Json.Bool r.wrap_all);
        ("exception_free", Json.List (List.map (fun m -> Json.Str m) r.exception_free));
        ("do_not_wrap", Json.List (List.map (fun m -> Json.Str m) r.do_not_wrap));
        ("jobs", opt (fun n -> Json.Int n) r.jobs);
        ("run_timeout_s", opt (fun s -> Json.Float s) r.run_timeout_s);
        ("plan", opt (fun s -> Json.Str s) r.plan);
        ("perturb_rate", opt (fun n -> Json.Int n) r.perturb_rate);
        ("perturb_seed", opt (fun n -> Json.Int n) r.perturb_seed);
        ("perturb_max", opt (fun n -> Json.Int n) r.perturb_max);
        ("perturb_point", opt (fun s -> Json.Str s) r.perturb_point);
        ("times", opt (fun n -> Json.Int n) r.times);
        ("log", Json.Bool r.log) ]
  | Status job -> Json.Obj [ ("cmd", Json.Str "status"); ("job", Json.Str job) ]
  | Watch job -> Json.Obj [ ("cmd", Json.Str "watch"); ("job", Json.Str job) ]
  | Cancel job -> Json.Obj [ ("cmd", Json.Str "cancel"); ("job", Json.Str job) ]
  | Log job -> Json.Obj [ ("cmd", Json.Str "log"); ("job", Json.Str job) ]
  | Stats -> Json.Obj [ ("cmd", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("cmd", Json.Str "shutdown") ]

let counts_to_json c =
  Json.Obj
    [ ("atomic", Json.Int c.atomic);
      ("conditional", Json.Int c.conditional);
      ("pure", Json.Int c.pure) ]

let summary_to_json s =
  Json.Obj
    [ ("workers", Json.Int s.workers);
      ("executed", Json.Int s.executed);
      ("reused", Json.Int s.reused);
      ("discarded", Json.Int s.discarded);
      ("synthesized", Json.Int s.synthesized);
      ("wall_s", Json.Float s.wall_s) ]

(* [~log:false] omits the "log" member; the decoder reads its absence
   as [""]. *)
let result_to_json ?(log = true) r =
  let log_field = if log then [ ("log", Json.Str r.r_log) ] else [] in
  Json.Obj
    ([ ("mode", Json.Str (mode_name r.r_mode));
       ("flavor", Json.Str r.r_flavor);
       ("injections", Json.Int r.r_injections);
       ("transparent", Json.Bool r.r_transparent);
       ( "non_atomic",
         Json.List
           (List.map
              (fun (m, v) -> Json.List [ Json.Str m; Json.Str v ])
              r.r_non_atomic) );
       ("counts", counts_to_json r.r_counts) ]
    @ log_field
    @ [ ("wrapped", Json.List (List.map (fun m -> Json.Str m) r.r_wrapped));
        ("corrected", opt (fun s -> Json.Str s) r.r_corrected);
        ("summary", opt summary_to_json r.r_summary);
        ("resilience", opt (fun s -> Json.Str s) r.r_resilience) ])

let event_to_json = function
  | Ev_state s -> Json.Obj [ ("event", Json.Str "state"); ("state", Json.Str s) ]
  | Ev_tick { completed; needed; injections } ->
    Json.Obj
      [ ("event", Json.Str "tick");
        ("completed", Json.Int completed);
        ("needed", opt (fun n -> Json.Int n) needed);
        ("injections", Json.Int injections) ]
  | Ev_warning msg -> Json.Obj [ ("event", Json.Str "warning"); ("message", Json.Str msg) ]
  | Ev_done { result; cached } ->
    Json.Obj
      [ ("event", Json.Str "done");
        ("cached", Json.Bool cached);
        ("result", result_to_json result) ]
  | Ev_error msg -> Json.Obj [ ("event", Json.Str "error"); ("message", Json.Str msg) ]
  | Ev_cancelled -> Json.Obj [ ("event", Json.Str "cancelled") ]
  | Ev_timeout -> Json.Obj [ ("event", Json.Str "timeout") ]

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let require what = function Some v -> Ok v | None -> Error ("missing or bad " ^ what)

let str_list what j key =
  match Json.member key j with
  | None | Some Json.Null -> Ok []
  | Some (Json.List items) ->
    let rec all acc = function
      | [] -> Ok (List.rev acc)
      | Json.Str s :: rest -> all (s :: acc) rest
      | _ -> Error (what ^ " must be a list of strings")
    in
    all [] items
  | Some _ -> Error (what ^ " must be a list of strings")

let submit_of_json j =
  let* () =
    match Json.str_member "rpc" j with
    | Some v when String.equal v version -> Ok ()
    | Some v -> Error (Printf.sprintf "unsupported rpc version %s (want %s)" v version)
    | None -> Error "missing rpc version"
  in
  let* mode =
    let* name = require "mode" (Json.str_member "mode" j) in
    require ("mode " ^ name) (mode_of_name name)
  in
  let* program =
    match Json.member "program" j with
    | Some p -> (
      match (Json.str_member "app" p, Json.str_member "inline" p) with
      | Some name, None -> Ok (App name)
      | None, Some src -> Ok (Inline src)
      | _ -> Error "program must carry exactly one of app/inline")
    | None -> Error "missing program"
  in
  let* flavor =
    match Json.member "flavor" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.Str name) -> (
      match Detect.flavor_of_wire_name name with
      | Some f -> Ok (Some f)
      | None -> Error ("unknown flavor " ^ name))
    | Some _ -> Error "flavor must be a string"
  in
  let* () =
    (* Older clients send the retired snapshot mode; both spellings run
       the copy-on-write path, which yields the eager path's results. *)
    match Json.str_member "snapshot" j with
    | None | Some ("eager" | "cow") -> Ok ()
    | Some s -> Error ("unknown snapshot mode " ^ s)
  in
  let* () =
    (* Older clients may name the retired rollback engine; both run
       the copy-on-write checkpoint, which restores what the eager
       one did. *)
    match Json.str_member "rollback" j with
    | None | Some ("checkpoint" | "cow") -> Ok ()
    | Some s -> Error (Printf.sprintf "unknown rollback engine %S" s)
  in
  let* prune =
    (* Absent on the wire means off: an older client never prunes. *)
    match Json.str_member "prune" j with
    | None -> Ok Config.Prune_off
    | Some s -> (
      match Config.prune_of_string s with
      | Some p -> Ok p
      | None -> Error ("unknown prune mode " ^ s))
  in
  let* schedules = str_list "schedules" j "schedules" in
  let* exception_free = str_list "exception_free" j "exception_free" in
  let* do_not_wrap = str_list "do_not_wrap" j "do_not_wrap" in
  let* jobs =
    match Json.member "jobs" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int n) when n >= 1 -> Ok (Some n)
    | Some _ -> Error "jobs must be a positive integer"
  in
  let* run_timeout_s =
    match Json.member "run_timeout_s" j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_float v with
      | Some s when s > 0. -> Ok (Some s)
      | _ -> Error "run_timeout_s must be a positive number")
  in
  (* All produce-mode fields are additive: absent (an older client)
     decodes as None, and the server only consults them for produce
     jobs, so older peers interoperate unchanged. *)
  let opt_int what key =
    match Json.member key j with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int n) -> Ok (Some n)
    | Some _ -> Error (what ^ " must be an integer")
  in
  let* perturb_rate = opt_int "perturb_rate" "perturb_rate" in
  let* perturb_seed = opt_int "perturb_seed" "perturb_seed" in
  let* perturb_max = opt_int "perturb_max" "perturb_max" in
  let* times = opt_int "times" "times" in
  let* log =
    (* Absent means true: an older client gets the run log as before. *)
    match Json.member "log" j with
    | None -> Ok true
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "log must be a boolean"
  in
  Ok
    (Submit
       { mode;
         program;
         flavor;
         prune;
         schedules;
         wrap_all = Option.value ~default:false (Json.bool_member "wrap_all" j);
         exception_free;
         do_not_wrap;
         jobs;
         run_timeout_s;
         plan = Json.str_member "plan" j;
         perturb_rate;
         perturb_seed;
         perturb_max;
         perturb_point = Json.str_member "perturb_point" j;
         times;
         log })

let request_of_json j =
  let* cmd = require "cmd" (Json.str_member "cmd" j) in
  let with_job k =
    let* job = require "job" (Json.str_member "job" j) in
    Ok (k job)
  in
  match cmd with
  | "submit" -> submit_of_json j
  | "status" -> with_job (fun job -> Status job)
  | "watch" -> with_job (fun job -> Watch job)
  | "cancel" -> with_job (fun job -> Cancel job)
  | "log" -> with_job (fun job -> Log job)
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | cmd -> Error ("unknown command " ^ cmd)

let counts_of_json j =
  let* atomic = require "counts.atomic" (Json.int_member "atomic" j) in
  let* conditional = require "counts.conditional" (Json.int_member "conditional" j) in
  let* pure = require "counts.pure" (Json.int_member "pure" j) in
  Ok { atomic; conditional; pure }

let summary_of_json j =
  let* workers = require "summary.workers" (Json.int_member "workers" j) in
  let* executed = require "summary.executed" (Json.int_member "executed" j) in
  let* reused = require "summary.reused" (Json.int_member "reused" j) in
  let* discarded = require "summary.discarded" (Json.int_member "discarded" j) in
  (* absent on the wire from an older server: nothing was synthesized *)
  let synthesized = Option.value ~default:0 (Json.int_member "synthesized" j) in
  let* wall_s = require "summary.wall_s" (Json.float_member "wall_s" j) in
  Ok { workers; executed; reused; discarded; synthesized; wall_s }

let result_of_json j =
  let* mode =
    let* name = require "result.mode" (Json.str_member "mode" j) in
    require ("mode " ^ name) (mode_of_name name)
  in
  let* flavor = require "result.flavor" (Json.str_member "flavor" j) in
  let* injections = require "result.injections" (Json.int_member "injections" j) in
  let* transparent = require "result.transparent" (Json.bool_member "transparent" j) in
  let* non_atomic =
    match Json.list_member "non_atomic" j with
    | None -> Error "missing non_atomic"
    | Some items ->
      let rec all acc = function
        | [] -> Ok (List.rev acc)
        | Json.List [ Json.Str m; Json.Str v ] :: rest -> all ((m, v) :: acc) rest
        | _ -> Error "bad non_atomic entry"
      in
      all [] items
  in
  let* counts =
    match Json.member "counts" j with
    | Some c -> counts_of_json c
    | None -> Error "missing counts"
  in
  let* log =
    (* absent: the request asked for no log *)
    match Json.member "log" j with
    | None -> Ok ""
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error "result.log must be a string"
  in
  let* wrapped = str_list "wrapped" j "wrapped" in
  let corrected = Json.str_member "corrected" j in
  let* summary =
    match Json.member "summary" j with
    | None | Some Json.Null -> Ok None
    | Some s ->
      let* s = summary_of_json s in
      Ok (Some s)
  in
  Ok
    { r_mode = mode;
      r_flavor = flavor;
      r_injections = injections;
      r_transparent = transparent;
      r_non_atomic = non_atomic;
      r_counts = counts;
      r_log = log;
      r_wrapped = wrapped;
      r_corrected = corrected;
      r_summary = summary;
      (* absent from an older server: not a produce job *)
      r_resilience = Json.str_member "resilience" j }

let event_of_json j =
  let* name = require "event" (Json.str_member "event" j) in
  match name with
  | "state" ->
    let* s = require "state" (Json.str_member "state" j) in
    Ok (Ev_state s)
  | "tick" ->
    let* completed = require "tick.completed" (Json.int_member "completed" j) in
    let* injections = require "tick.injections" (Json.int_member "injections" j) in
    Ok (Ev_tick { completed; needed = Json.int_member "needed" j; injections })
  | "warning" ->
    let* msg = require "warning.message" (Json.str_member "message" j) in
    Ok (Ev_warning msg)
  | "done" ->
    let* cached = require "done.cached" (Json.bool_member "cached" j) in
    let* result =
      match Json.member "result" j with
      | Some r -> result_of_json r
      | None -> Error "missing result"
    in
    Ok (Ev_done { result; cached })
  | "error" ->
    let* msg = require "error.message" (Json.str_member "message" j) in
    Ok (Ev_error msg)
  | "cancelled" -> Ok Ev_cancelled
  | "timeout" -> Ok Ev_timeout
  | name -> Error ("unknown event " ^ name)
