(* The repository benchmark: one named workload per call.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every run does a fixed amount of work (set by --seconds, never by
   elapsed time), checks every output, and prints as its last stdout
   line one JSON object: correct, attempted, failed and the metrics —
   the end-to-end ones untraced (--trace 0), the per-layer ones traced
   (--trace 1).  The line before it is the full result row with the
   seed and the machine fingerprint; rows are also appended to
   perfbench/out/rows.jsonl and a traced run's spans are written to
   perfbench/out/.  See perfbench/README.md. *)

open Common

let workloads =
  [ ("detect-seq", Detect_seq.run);
    ("detect-sweep", Detect_sweep.run);
    ("produce-canary", Produce_canary.run);
    ("serve-mixed", Serve_mixed.run) ]

(* Every per-layer metric BENCHMARK.json lists, with its unit, in its
   order: each workload reports all of them, and a layer it bypasses
   reads 0, which is the prediction for it. *)
let per_layer () =
  let module Json = Failatom_core.Json in
  let spec = Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  List.map
    (fun x ->
      match (Json.str_member "name" x, Json.str_member "unit" x) with
      | Some name, Some unit_ -> (name, unit_)
      | _ -> failwith "BENCHMARK.json: a per_layer entry lacks its name or unit")
    (Option.value ~default:[] (Json.list_member "per_layer" spec))

let out_dir = Filename.concat "perfbench" "out"

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let str s = Failatom_core.Json.(to_string (Str s))

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (str x.name) (number x.value)
             (str x.unit_))
         ms)
  ^ "}"

let fields kvs = String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ str v) kvs)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --expected   (prints detect-seq's verdict table)";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--expected" ] then begin
    Detect_seq.print_table ();
    exit 0
  end;
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let seed = int "seed" and seconds = int "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  if seconds < 1 then usage ();
  let r = run ~seed ~seconds ~trace in
  let metrics =
    if trace then begin
      let listed = per_layer () in
      List.iter
        (fun x ->
          if not (List.mem_assoc x.name listed) then
            failwith ("per-layer metric missing from BENCHMARK.json: " ^ x.name))
        r.layer;
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun x -> x.name = name) r.layer with
          | Some x -> x
          | None -> m name 0. unit_)
        listed
    end
    else m "setup_s" r.setup_s "s" :: r.e2e
  in
  let row =
    Printf.sprintf
      "{\"row\":{\"workload\":%s,\"seed\":%d,\"seconds\":%d,\"trace\":%b,\
       \"fingerprint\":{%s},\"work\":{%s},\"correct\":%b,\"attempted\":%d,\
       \"failed\":%d,\"metrics\":%s}}"
      (str workload) seed seconds trace (fields (fingerprint ())) (fields r.info) r.correct
      r.attempted r.failed (metrics_json metrics)
  in
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
       (Filename.concat out_dir "rows.jsonl") (fun oc -> output_string oc (row ^ "\n"));
     if trace then
       Out_channel.with_open_text
         (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed))
         (fun oc ->
           List.iter (fun s -> output_string oc (Spans.to_json_line s ^ "\n")) (Spans.all ()))
   with Sys_error msg -> prerr_endline ("perfbench: cannot write results: " ^ msg));
  print_endline row;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n" r.correct
    r.attempted r.failed (metrics_json metrics)
