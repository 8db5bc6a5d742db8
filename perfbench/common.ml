(* What every workload shares: the result a run reports, metric
   helpers over the program's [Obs] registry, the seeded generator,
   process memory readings and the machine fingerprint. *)

module Obs = Failatom_obs.Obs

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  setup_s : float;
  e2e : metric list;  (** every end-to-end metric except [setup_s] *)
  layer : metric list;  (** the per-layer metrics this workload exercises *)
  info : (string * string) list;  (** work size and similar, for the row *)
}

let m name value unit_ = { name; value; unit_ }
let now () = Unix.gettimeofday ()

(* Set-up is repeated and its median reported: one set-up is a few
   dozen milliseconds to a few seconds, too little to read steadily
   once.  The run goes on with the last repetition's value. *)
type setup = { raw : float; scaled : float }

let setup_of clock spans =
  Machine.finish clock;
  { raw = Stats.median (List.map Machine.raw spans);
    scaled = Stats.median (List.map (Machine.scaled clock) spans) }

let repeat_setup ~reps f =
  let clock = Machine.clock () in
  let rec go i spans last =
    if i = reps then (Option.get last, setup_of clock spans)
    else
      let v, span = Machine.measure clock f in
      go (i + 1) (span :: spans) (Some v)
  in
  go 0 [] None

(* The latency a workload reports: the median over its programs of each
   program's median operation time.  Programs differ several-fold in
   cost, so a median over all operations would sit on whichever
   program happens to straddle the middle and jump between them. *)
let typical_ms (per_program : (string, float list) Hashtbl.t) =
  Stats.median (Hashtbl.fold (fun _ ms acc -> Stats.median ms :: acc) per_program [])

let add_sample tbl key v =
  Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let rng seed salt = Random.State.make [| 0x5eed; seed; salt |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The fixed amount of work of a run: [seconds] times a per-workload
   rate calibrated on a 2-core machine, rounded up to an even count so
   a traced run can alternate traced and untraced halves.  The work
   never depends on elapsed time, so a faster program finishes sooner
   instead of doing more. *)
let work_units ~seconds ~per_second =
  let n = max 2 (int_of_float (Float.ceil (float_of_int seconds *. per_second))) in
  n + (n mod 2)

(* Traced runs alternate: even-numbered units run untraced, odd ones
   traced, so both halves see the same inputs and the same process
   age. *)
let traced_unit ~trace i = trace && i mod 2 = 1

let with_tracing on f =
  if not on then f ()
  else begin
    Spans.set_enabled true;
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Spans.set_enabled false)
      f
  end

(* Scaled time of the traced operations over that of the untraced
   ones, which did the same work. *)
let trace_overhead clock ~traced ~untraced =
  let total spans = List.fold_left (fun acc s -> acc +. Machine.scaled clock s) 0. spans in
  total traced /. total untraced

(* ---- the program's Obs registry ---- *)

let counter (s : Obs.snap) name =
  Option.value ~default:0 (List.assoc_opt name s.Obs.s_counters)

let hist_sum (s : Obs.snap) name =
  match List.assoc_opt name s.Obs.s_histograms with
  | Some h -> h.Obs.hs_sum
  | None -> 0

let hist_count (s : Obs.snap) name =
  match List.assoc_opt name s.Obs.s_histograms with
  | Some h -> h.Obs.hs_count
  | None -> 0

let ms_of_ns ns = float_of_int ns /. 1e6

(* ---- process memory ---- *)

let status_kb pid field =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ k; v ] when String.equal k field ->
          Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' text)

let peak_rss_mb ?pid () =
  match status_kb pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "cannot read VmHWM from /proc"

(* ---- machine fingerprint ---- *)

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    Option.value ~default:"unknown"
      (List.find_map
         (fun line ->
           match String.index_opt line ':' with
           | Some i when String.trim (String.sub line 0 i) = "model name" ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)
         (String.split_on_char '\n' text))

let fingerprint () =
  [ ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("cpu_model", cpu_model ());
    ("ocaml", Sys.ocaml_version);
    ("os", Sys.os_type) ]
