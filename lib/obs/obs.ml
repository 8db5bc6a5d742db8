(* Low-overhead metrics and span tracing for the failatom stack.

   Design constraints, in order:

   1. {b Zero cost when disabled.}  Every recording operation first
      reads one atomic flag; the interpreter's true hot path (per-step
      [Vm.tick]) never calls into this module at all — subsystems keep
      counting in their existing per-VM mutable fields and {e harvest}
      them into the registry at run boundaries ([Compile.run_main]).

   2. {b Domain-safe without locks on the record path.}  Counters,
      gauges and histogram cells are [Atomic.t]; campaign workers on
      separate domains aggregate with lock-free fetch-and-add.  The
      registry mutex guards only metric {e creation} and snapshotting,
      never a hot increment.

   3. {b One registry, stable names.}  Metrics are created (and
      memoized) by name; the full name set is documented in
      doc/architecture.md.  [snapshot] captures everything at once and
      [to_json]/[parse_json] pin a stable interchange schema
      ([failatom.metrics/1]) consumed by [failatom stats] and CI.

   Span timings use a monotonic clock (CLOCK_MONOTONIC via a C stub
   returning tagged-int nanoseconds, so reading the clock does not
   allocate). *)

external now_ns : unit -> int = "obs_now_ns" [@@noalloc]

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let with_enabled b f =
  let prev = enabled () in
  set_enabled b;
  Fun.protect ~finally:(fun () -> set_enabled prev) f

(* ------------------------------------------------------------------ *)
(* Metric cells                                                        *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : int Atomic.t }

type unit_kind = Ns | Items

let unit_name = function Ns -> "ns" | Items -> "items"

(* Log2-bucketed histogram: bucket [b] holds values whose bit width is
   [b] (0 for the value 0), i.e. the range [2^(b-1), 2^b).  Power-of-two
   resolution is coarse but lock-free and enough for p50/p99 of span
   durations and dirty-set sizes. *)
let n_buckets = 64

type histogram = {
  h_name : string;
  h_unit : unit_kind;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_min : int Atomic.t; (* max_int while empty *)
  h_max : int Atomic.t; (* min_int while empty *)
  h_buckets : int Atomic.t array;
  mutable h_attrs : (string * string) list;
      (* informational labels from the last span carrying ~attrs; a
         racy replace is benign (whole-list writes, last wins) *)
}

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 8
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let counter name =
  with_registry (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { c_name = name; c_value = Atomic.make 0 } in
        Hashtbl.replace counters name c;
        c)

let gauge name =
  with_registry (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
        let g = { g_name = name; g_value = Atomic.make 0 } in
        Hashtbl.replace gauges name g;
        g)

let histogram ?(unit_ = Items) name =
  with_registry (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          { h_name = name;
            h_unit = unit_;
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0;
            h_min = Atomic.make max_int;
            h_max = Atomic.make min_int;
            h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
            h_attrs = [] }
        in
        Hashtbl.replace histograms name h;
        h)

let span_histogram name = histogram ~unit_:Ns name

(* ------------------------------------------------------------------ *)
(* Recording (every operation is a no-op while disabled)               *)
(* ------------------------------------------------------------------ *)

let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_value n)
let incr c = add c 1

let set_gauge g v = if Atomic.get enabled_flag then Atomic.set g.g_value v

(* Monotone max: used for high-water marks. *)
let rec cas_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then cas_max cell v

let rec cas_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then cas_min cell v

let gauge_to_max g v = if Atomic.get enabled_flag then cas_max g.g_value v

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v <> 0 do
      Stdlib.incr b;
      v := !v lsr 1
    done;
    !b
  end

let observe h v =
  if Atomic.get enabled_flag then begin
    ignore (Atomic.fetch_and_add h.h_count 1);
    ignore (Atomic.fetch_and_add h.h_sum v);
    cas_min h.h_min v;
    cas_max h.h_max v;
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1)
  end

let timed h f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> observe h (now_ns () - t0)) f
  end

let span ?attrs name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let h = span_histogram name in
    (match attrs with Some a -> h.h_attrs <- a | None -> ());
    timed h f
  end

(* ------------------------------------------------------------------ *)
(* Values and reset                                                    *)
(* ------------------------------------------------------------------ *)

let counter_value c = Atomic.get c.c_value
let gauge_value g = Atomic.get g.g_value
let histogram_count h = Atomic.get h.h_count

let reset () =
  with_registry (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_value 0) gauges;
      Hashtbl.iter
        (fun _ h ->
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0;
          Atomic.set h.h_min max_int;
          Atomic.set h.h_max min_int;
          Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
          h.h_attrs <- [])
        histograms)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_snap = {
  hs_unit : string;
  hs_count : int;
  hs_sum : int;
  hs_min : int; (* 0 when empty *)
  hs_max : int;
  hs_p50 : int;
  hs_p99 : int;
  hs_attrs : (string * string) list;
}

type snap = {
  s_counters : (string * int) list; (* sorted by name *)
  s_gauges : (string * int) list;
  s_histograms : (string * hist_snap) list;
}

(* Representative value of bucket [b]: the midpoint of [2^(b-1), 2^b),
   clamped into the observed [min, max] so estimates never exceed the
   recorded extremes. *)
let bucket_rep ~min_v ~max_v b =
  let rep = if b = 0 then 0 else (1 lsl (b - 1)) + ((1 lsl (b - 1)) lsr 1) in
  Stdlib.min max_v (Stdlib.max min_v rep)

let quantile ~min_v ~max_v buckets total q =
  if total = 0 then 0
  else begin
    let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let acc = ref 0 and result = ref max_v in
    (try
       Array.iteri
         (fun b n ->
           acc := !acc + n;
           if !acc >= rank then begin
             result := bucket_rep ~min_v ~max_v b;
             raise Exit
           end)
         buckets
     with Exit -> ());
    !result
  end

let hist_snap_of h =
  let count = Atomic.get h.h_count in
  let buckets = Array.map Atomic.get h.h_buckets in
  let min_v = if count = 0 then 0 else Atomic.get h.h_min in
  let max_v = if count = 0 then 0 else Atomic.get h.h_max in
  { hs_unit = unit_name h.h_unit;
    hs_count = count;
    hs_sum = Atomic.get h.h_sum;
    hs_min = min_v;
    hs_max = max_v;
    hs_p50 = quantile ~min_v ~max_v buckets count 0.50;
    hs_p99 = quantile ~min_v ~max_v buckets count 0.99;
    hs_attrs = h.h_attrs }

let sorted_bindings tbl value =
  with_registry (fun () -> Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  { s_counters = sorted_bindings counters (fun c -> Atomic.get c.c_value);
    s_gauges = sorted_bindings gauges (fun g -> Atomic.get g.g_value);
    s_histograms = sorted_bindings histograms hist_snap_of }

(* ------------------------------------------------------------------ *)
(* JSON interchange (schema failatom.metrics/1)                        *)
(* ------------------------------------------------------------------ *)

let schema_id = "failatom.metrics/1"

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json snap =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let int_section name entries =
    out "  \"%s\": {" name;
    List.iteri
      (fun i (k, v) ->
        out "%s\n    \"%s\": %d" (if i = 0 then "" else ",") (json_escape k) v)
      entries;
    out "%s}" (if entries = [] then "" else "\n  ")
  in
  out "{\n";
  out "  \"schema\": \"%s\",\n" schema_id;
  int_section "counters" snap.s_counters;
  out ",\n";
  int_section "gauges" snap.s_gauges;
  out ",\n";
  out "  \"histograms\": {";
  List.iteri
    (fun i (k, h) ->
      out "%s\n    \"%s\": {\"unit\": \"%s\", \"count\": %d, \"sum\": %d, \
           \"min\": %d, \"max\": %d, \"mean\": %.3f, \"p50\": %d, \"p99\": %d, \
           \"attrs\": {"
        (if i = 0 then "" else ",")
        (json_escape k) (json_escape h.hs_unit) h.hs_count h.hs_sum h.hs_min
        h.hs_max
        (if h.hs_count = 0 then 0.0
         else float_of_int h.hs_sum /. float_of_int h.hs_count)
        h.hs_p50 h.hs_p99;
      List.iteri
        (fun j (ak, av) ->
          out "%s\"%s\": \"%s\"" (if j = 0 then "" else ", ") (json_escape ak)
            (json_escape av))
        h.hs_attrs;
      out "}}")
    snap.s_histograms;
  out "%s}\n" (if snap.s_histograms = [] then "" else "\n  ");
  out "}\n";
  Buffer.contents buf

(* --- minimal JSON reader, just enough for the schema above --------- *)

exception Parse_error of string

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

let parse_json_value (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = Stdlib.incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "invalid literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some ('"' | '\\' | '/') ->
          Buffer.add_char buf s.[!pos];
          advance ();
          go ()
        | Some 'u' ->
          if !pos + 4 >= n then fail "bad \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          (match int_of_string_opt ("0x" ^ hex) with
           | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
           | Some _ -> Buffer.add_char buf '?' (* non-ASCII: not produced by us *)
           | None -> fail "bad \\u escape");
          pos := !pos + 5;
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Jobj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Jobj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Jarr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Jarr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | Jobj fields -> List.assoc_opt name fields
  | _ -> None

let as_int name = function
  | Some (Jnum f) -> int_of_float f
  | _ -> raise (Parse_error (Printf.sprintf "missing integer field %S" name))

let as_str name = function
  | Some (Jstr s) -> s
  | _ -> raise (Parse_error (Printf.sprintf "missing string field %S" name))

let int_bindings section = function
  | Some (Jobj fields) ->
    List.map
      (fun (k, v) ->
        match v with
        | Jnum f -> (k, int_of_float f)
        | _ -> raise (Parse_error (Printf.sprintf "non-integer entry in %S" section)))
      fields
  | _ -> raise (Parse_error (Printf.sprintf "missing section %S" section))

let parse_json (text : string) : snap =
  let root = parse_json_value text in
  (match obj_field "schema" root with
   | Some (Jstr s) when s = schema_id -> ()
   | Some (Jstr s) ->
     raise (Parse_error (Printf.sprintf "unsupported schema %S (want %S)" s schema_id))
   | _ -> raise (Parse_error "missing \"schema\" field"));
  let hist_of j =
    { hs_unit = as_str "unit" (obj_field "unit" j);
      hs_count = as_int "count" (obj_field "count" j);
      hs_sum = as_int "sum" (obj_field "sum" j);
      hs_min = as_int "min" (obj_field "min" j);
      hs_max = as_int "max" (obj_field "max" j);
      hs_p50 = as_int "p50" (obj_field "p50" j);
      hs_p99 = as_int "p99" (obj_field "p99" j);
      hs_attrs =
        (match obj_field "attrs" j with
         | Some (Jobj fields) ->
           List.map
             (fun (k, v) ->
               match v with
               | Jstr s -> (k, s)
               | _ -> raise (Parse_error "non-string attr"))
             fields
         | _ -> []) }
  in
  { s_counters = int_bindings "counters" (obj_field "counters" root);
    s_gauges = int_bindings "gauges" (obj_field "gauges" root);
    s_histograms =
      (match obj_field "histograms" root with
       | Some (Jobj fields) -> List.map (fun (k, v) -> (k, hist_of v)) fields
       | _ -> raise (Parse_error "missing section \"histograms\"")) }

(* ------------------------------------------------------------------ *)
(* Per-phase table rendering (the failatom stats view)                 *)
(* ------------------------------------------------------------------ *)

let phase_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Pipeline order, so the table reads top-to-bottom the way a campaign
   runs; unknown phases sort after these, alphabetically. *)
let phase_rank = [ "compile"; "vm"; "heap"; "detect"; "campaign"; "server" ]

let compare_phase a b =
  let rank p =
    let rec idx i = function
      | [] -> List.length phase_rank
      | p' :: rest -> if String.equal p p' then i else idx (i + 1) rest
    in
    idx 0 phase_rank
  in
  match compare (rank a) (rank b) with 0 -> String.compare a b | c -> c

let fmt_ns ns =
  let f = float_of_int ns in
  if ns < 1_000 then Printf.sprintf "%dns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.1fus" (f /. 1e3)
  else if ns < 1_000_000_000 then Printf.sprintf "%.1fms" (f /. 1e6)
  else Printf.sprintf "%.2fs" (f /. 1e9)

let fmt_value ~unit_ v = if String.equal unit_ "ns" then fmt_ns v else string_of_int v

let pp_table ppf snap =
  let phases = Hashtbl.create 8 in
  let push name line =
    let phase = phase_of name in
    let existing = try Hashtbl.find phases phase with Not_found -> [] in
    Hashtbl.replace phases phase ((name, line) :: existing)
  in
  List.iter
    (fun (name, v) -> push name (Printf.sprintf "%-34s counter %14d" name v))
    snap.s_counters;
  List.iter
    (fun (name, v) -> push name (Printf.sprintf "%-34s gauge   %14d" name v))
    snap.s_gauges;
  List.iter
    (fun (name, h) ->
      let kind = if String.equal h.hs_unit "ns" then "span" else "dist" in
      let attrs =
        match h.hs_attrs with
        | [] -> ""
        | attrs ->
          Printf.sprintf "  {%s}"
            (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))
      in
      let v = fmt_value ~unit_:h.hs_unit in
      let line =
        if h.hs_count = 0 then
          Printf.sprintf "%-34s %-7s count %8d%s" name kind 0 attrs
        else
          Printf.sprintf
            "%-34s %-7s count %8d  total %10s  mean %10s  p50 %10s  p99 %10s  \
             max %10s%s"
            name kind h.hs_count
            (if String.equal h.hs_unit "ns" then fmt_ns h.hs_sum
             else string_of_int h.hs_sum)
            (v (h.hs_sum / h.hs_count))
            (v h.hs_p50) (v h.hs_p99) (v h.hs_max) attrs
      in
      push name line)
    snap.s_histograms;
  let ordered =
    Hashtbl.fold (fun phase lines acc -> (phase, lines) :: acc) phases []
    |> List.sort (fun (a, _) (b, _) -> compare_phase a b)
  in
  if ordered = [] then Fmt.pf ppf "(no metrics recorded)@."
  else
    List.iter
      (fun (phase, lines) ->
        Fmt.pf ppf "== %s %s@." phase (String.make (max 1 (68 - String.length phase)) '=');
        List.iter
          (fun (_, line) -> Fmt.pf ppf "  %s@." line)
          (List.sort (fun (a, _) (b, _) -> String.compare a b) lines))
      ordered
