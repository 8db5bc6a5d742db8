(** The versioned wire protocol of the failatom daemon:
    newline-delimited JSON over a Unix-domain socket.

    On connect the server sends {!greeting}; the client then sends one
    request object per line and reads one response per line — except
    [watch], which streams {!event} objects until a terminal event
    ([done], [error], [cancelled], [timeout]).  This module is purely
    the wire encoding; {!Server} and {!Client} both build on it. *)

open Failatom_core

val version : string
(** ["failatom.rpc/1"]. *)

val greeting : Json.t
(** The line the server sends on every fresh connection. *)

type mode = Detect | Campaign | Mask | Produce

val mode_name : mode -> string
val mode_of_name : string -> mode option

val flavor_of_name : string -> Detect.flavor option
(** ["source"] / ["binary"], the CLI convention. *)

val flavor_wire_name : Detect.flavor -> string

type program_spec =
  | App of string  (** a bundled registry application *)
  | Inline of string  (** full MiniLang source shipped in the request *)

type job_request = {
  mode : mode;
  program : program_spec;
  flavor : Detect.flavor option;
      (** [None]: the app's suite default, or source weaving for inline *)
  prune : Config.prune;
      (** campaign pruning mode; absent on the wire decodes as
          {!Config.Prune_off}, so older clients keep exact campaigns *)
  schedules : string list;
      (** schedule specs ({!Failatom_runtime.Sched.policy_of_string})
          crossed with the injection axis for concurrent programs;
          absent on the wire decodes as [[]], meaning the config default
          (coop only) — older clients keep sequential behaviour *)
  infer : bool;  (** infer_exception_free *)
  wrap_all : bool;  (** Wrap_all_non_atomic instead of Wrap_pure *)
  exception_free : string list;  (** ["Class.method"] *)
  do_not_wrap : string list;
  jobs : int option;  (** campaign worker domains; the server clamps *)
  run_timeout_s : float option;
  plan : string option;
      (** produce mode: [failatom.plan/1] JSON text; required there,
          absent on the wire for every other mode *)
  perturb_rate : int option;  (** canary rate per mille; [None]/[0] = off *)
  perturb_seed : int option;
  perturb_max : int option;  (** cap on total canary fires *)
  perturb_point : string option;  (** ["entry"] / ["exit"] *)
  times : int option;  (** production runs per job (default 1) *)
}

val default_request : mode -> program_spec -> job_request
(** All options at their defaults. *)

type request =
  | Submit of job_request
  | Status of string  (** job id *)
  | Watch of string
  | Cancel of string
  | Stats
  | Shutdown

type counts = { atomic : int; conditional : int; pure : int }

type summary = {
  workers : int;
  executed : int;
  reused : int;
  discarded : int;
  synthesized : int;
      (** coalesced records adopted without execution; absent on the
          wire from an older server decodes as [0] *)
  wall_s : float;
}

type job_result = {
  r_mode : mode;
  r_flavor : string;  (** wire flavor name *)
  r_injections : int;
  r_transparent : bool;
  r_non_atomic : (string * string) list;  (** method id, verdict name *)
  r_counts : counts;
  r_log : string;  (** full {!Run_log} text; [""] in mask mode *)
  r_wrapped : string list;  (** mask mode: wrapped method ids *)
  r_corrected : string option;  (** mask mode: corrected program source *)
  r_summary : summary option;  (** campaign execution statistics *)
  r_resilience : string option;
      (** produce mode: [failatom.resilience/1] scorecard JSON; absent
          on the wire from an older server decodes as [None] *)
}

type event =
  | Ev_state of string  (** "queued" | "running" *)
  | Ev_tick of { completed : int; needed : int option; injections : int }
  | Ev_warning of string
  | Ev_done of { result : job_result; cached : bool }
  | Ev_error of string
  | Ev_cancelled
  | Ev_timeout

(** {1 Encoding} *)

val request_to_json : request -> Json.t
val result_to_json : job_result -> Json.t
val event_to_json : event -> Json.t

val ok : (string * Json.t) list -> Json.t
(** [{"ok":true, ...fields}]. *)

val error : string -> Json.t
(** [{"ok":false,"error":msg}]. *)

(** {1 Decoding} — total; [Error] carries a human-readable reason *)

val request_of_json : Json.t -> (request, string) result
(** A submit may still carry the retired ["snapshot"] field of older
    clients: ["eager"] or ["cow"] is accepted and ignored (detection
    always takes copy-on-write snapshots), any other value is an
    error.  The retired ["rollback"] field is handled the same way:
    ["checkpoint"] or ["cow"] is accepted and ignored (every wrapper
    rolls back through the copy-on-write checkpoint), any other value
    is an ["unknown rollback engine"] error. *)

val result_of_json : Json.t -> (job_result, string) result
val event_of_json : Json.t -> (event, string) result
