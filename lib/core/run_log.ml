(* Persistence of detection results as wrapper log files.

   The paper's C++ implementation writes "the results of online
   atomicity checks ... to log files" which "are then processed offline
   to classify each method" (§5.1, Step 3).  This module is that log
   format: a line-oriented text file carrying the baseline call profile
   and every run record, sufficient to re-run classification (including
   exception-free re-classification) without the program.

   Grammar (one record per line; method ids are Class.method and contain
   no spaces):

     faillog 1
     flavor <name>
     transparent <bool>
     calls <method> <count>          (* repeated *)
     run <injection_point>
     sched <spec> <switches> <digest> (* optional; non-coop schedules *)
     inject <method> <exception>     (* absent for the probe run *)
     escaped <exception>             (* optional *)
     ncalls <count>
     timedout                        (* optional; --run-timeout abort *)
     mark <method> atomic|nonatomic <exn-id> [<diff-path>]
     output <escaped-string>         (* optional; campaign journals *)
     endrun

   The [sched] record is emitted only for runs under a non-coop schedule
   policy — logs of sequential detection stay byte-identical to the
   pre-scheduler format.  <spec> is the Sched policy spec
   (e.g. slice:7); <digest> the hex decision-stream digest.

   The [output] record carries the run's program output as a single
   space-free token (OCaml string-literal escapes, with spaces encoded
   as \032).  Plain run logs omit it; campaign journals need it so that
   a resumed campaign can rebuild a result bitwise-identical to an
   uninterrupted one (including the probe run's transparency check).
*)

type t = {
  flavor : string;
  transparent : bool;
  calls : int Method_id.Map.t;
  runs : Marks.run_record list;
}

exception Bad_log of string * int (* message, line number *)

let method_of_string lineno s =
  match Method_id.of_string s with
  | Ok id -> id
  | Error _ -> raise (Bad_log ("not a method id: " ^ s, lineno))

(* ------------------------------------------------------------------ *)
(* Saving                                                              *)
(* ------------------------------------------------------------------ *)

(* Program output as a single space-free token: OCaml string-literal
   escapes via [String.escaped], plus spaces as the decimal escape \032
   (which [Scanf.unescaped] decodes). *)
let encode_output s =
  String.concat "\\032" (String.split_on_char ' ' (String.escaped s))

let decode_output s = Scanf.unescaped s

let save_run ?(with_output = false) buf (r : Marks.run_record) =
  Buffer.add_string buf (Printf.sprintf "run %d\n" r.Marks.injection_point);
  (match r.Marks.sched with
   | Some s ->
     Buffer.add_string buf
       (Printf.sprintf "sched %s %d %s\n" s.Marks.sched_spec s.Marks.sched_switches
          s.Marks.sched_digest)
   | None -> ());
  (match r.Marks.injected with
   | Some (site, exn_class) ->
     Buffer.add_string buf
       (Printf.sprintf "inject %s %s\n" (Method_id.to_string site) exn_class)
   | None -> ());
  (match r.Marks.escaped with
   | Some exn_class -> Buffer.add_string buf (Printf.sprintf "escaped %s\n" exn_class)
   | None -> ());
  Buffer.add_string buf (Printf.sprintf "ncalls %d\n" r.Marks.calls);
  if r.Marks.timed_out then Buffer.add_string buf "timedout\n";
  List.iter
    (fun (m : Marks.mark) ->
      Buffer.add_string buf
        (Printf.sprintf "mark %s %s %d%s\n"
           (Method_id.to_string m.Marks.meth)
           (if m.Marks.atomic then "atomic" else "nonatomic")
           m.Marks.exn_id
           (match m.Marks.diff_path with Some p -> " " ^ p | None -> "")))
    r.Marks.marks;
  if with_output then
    Buffer.add_string buf (Printf.sprintf "output %s\n" (encode_output r.Marks.output));
  Buffer.add_string buf "endrun\n"

let save_runs buf (runs : Marks.run_record list) = List.iter (save_run buf) runs

let save (result : Detect.result) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "faillog 1\n";
  Buffer.add_string buf
    (Printf.sprintf "flavor %s\n" (Detect.flavor_name result.Detect.flavor));
  Buffer.add_string buf (Printf.sprintf "transparent %b\n" result.Detect.transparent);
  Method_id.Map.iter
    (fun id count ->
      Buffer.add_string buf
        (Printf.sprintf "calls %s %d\n" (Method_id.to_string id) count))
    result.Detect.profile.Profile.calls;
  save_runs buf result.Detect.runs;
  Buffer.contents buf

let save_file result path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save result))

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

type partial_run = {
  mutable point : int;
  mutable injected : (Method_id.t * string) option;
  mutable escaped : string option;
  mutable ncalls : int;
  mutable marks_rev : Marks.mark list;
  mutable out : string;
  mutable timed : bool;
  mutable sched : Marks.sched_info option;
}

(* Generic parser over the run-record grammar.  Lines that are not part
   of a [run]…[endrun] block are handed to [on_extra] (which raises
   {!Bad_log} on lines it does not recognise) — {!load} uses it for the
   faillog header, {!Failatom_campaign.Journal} for its own header.
   With [tolerate_partial_tail] a trailing unterminated run is silently
   dropped instead of raising: an append-only journal whose writer was
   killed mid-record ends with exactly such a block. *)
let parse_runs ?(tolerate_partial_tail = false) ~on_extra (text : string) :
    Marks.run_record list =
  let lines = String.split_on_char '\n' text in
  let runs_rev = ref [] in
  let current : partial_run option ref = ref None in
  let bad lineno msg = raise (Bad_log (msg, lineno)) in
  let finish_run lineno =
    match !current with
    | None -> bad lineno "endrun without run"
    | Some pr ->
      runs_rev :=
        { Marks.injection_point = pr.point;
          injected = pr.injected;
          marks = List.rev pr.marks_rev;
          escaped = pr.escaped;
          output = pr.out;
          calls = pr.ncalls;
          timed_out = pr.timed;
          sched = pr.sched }
        :: !runs_rev;
      current := None
  in
  let in_run lineno f =
    match !current with None -> bad lineno "record outside of a run" | Some pr -> f pr
  in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> ()
      | [ "run"; point ] -> (
        (match !current with
         | Some _ -> bad lineno "nested run"
         | None -> ());
        match int_of_string_opt point with
        | Some p ->
          current :=
            Some
              { point = p;
                injected = None;
                escaped = None;
                ncalls = 0;
                marks_rev = [];
                out = "";
                timed = false;
                sched = None }
        | None -> bad lineno "bad injection point")
      | [ "sched"; spec; switches; digest ] ->
        in_run lineno (fun pr ->
            match int_of_string_opt switches with
            | Some n ->
              pr.sched <-
                Some
                  { Marks.sched_spec = spec;
                    sched_switches = n;
                    sched_digest = digest }
            | None -> bad lineno "bad sched switches")
      | [ "inject"; meth; exn_class ] ->
        in_run lineno (fun pr -> pr.injected <- Some (method_of_string lineno meth, exn_class))
      | [ "escaped"; exn_class ] -> in_run lineno (fun pr -> pr.escaped <- Some exn_class)
      | [ "ncalls"; n ] ->
        in_run lineno (fun pr ->
            match int_of_string_opt n with
            | Some n -> pr.ncalls <- n
            | None -> bad lineno "bad ncalls")
      | "mark" :: meth :: verdict :: exn_id :: rest ->
        in_run lineno (fun pr ->
            let atomic =
              match verdict with
              | "atomic" -> true
              | "nonatomic" -> false
              | _ -> bad lineno "bad mark verdict"
            in
            let exn_id =
              match int_of_string_opt exn_id with
              | Some n -> n
              | None -> bad lineno "bad exception id"
            in
            let diff_path =
              match rest with [] -> None | parts -> Some (String.concat " " parts)
            in
            pr.marks_rev <-
              { Marks.meth = method_of_string lineno meth; atomic; diff_path; exn_id }
              :: pr.marks_rev)
      | [ "timedout" ] -> in_run lineno (fun pr -> pr.timed <- true)
      | [ "output" ] -> in_run lineno (fun pr -> pr.out <- "")
      | [ "output"; enc ] ->
        in_run lineno (fun pr ->
            match decode_output enc with
            | s -> pr.out <- s
            | exception Scanf.Scan_failure _ -> bad lineno "bad output encoding")
      | [ "endrun" ] -> finish_run lineno
      | parts -> on_extra lineno parts)
    lines;
  (match !current with
   | Some _ when not tolerate_partial_tail ->
     raise (Bad_log ("unterminated run", List.length lines))
   | Some _ | None -> ());
  List.rev !runs_rev

let load (text : string) : t =
  let flavor = ref "unknown" in
  let transparent = ref false in
  let calls = ref Method_id.Map.empty in
  let bad lineno msg = raise (Bad_log (msg, lineno)) in
  let on_extra lineno = function
    | [ "faillog"; "1" ] -> ()
    | [ "faillog"; v ] -> bad lineno ("unsupported log version " ^ v)
    | [ "flavor"; name ] -> flavor := name
    | [ "transparent"; b ] -> (
      match bool_of_string_opt b with
      | Some b -> transparent := b
      | None -> bad lineno "bad boolean")
    | [ "calls"; meth; count ] -> (
      match int_of_string_opt count with
      | Some n -> calls := Method_id.Map.add (method_of_string lineno meth) n !calls
      | None -> bad lineno "bad call count")
    | parts -> bad lineno ("unrecognized record: " ^ String.concat " " parts)
  in
  let runs = parse_runs ~on_extra text in
  { flavor = !flavor; transparent = !transparent; calls = !calls; runs }

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> load (really_input_string ic (in_channel_length ic)))

(* Offline classification from a loaded log. *)
let classify ?exception_free (log : t) : Classify.t =
  Classify.classify_data ?exception_free ~runs:log.runs ~calls:log.calls ()
