(* Run-log persistence: save/load round trip and offline classification
   equivalence. *)

open Failatom_core
open Failatom_apps

let detection = lazy (Detect.run (Failatom_minilang.Minilang.parse Synthetic.source))

let test_roundtrip () =
  let d = Lazy.force detection in
  let log = Run_log.load (Run_log.save d) in
  Alcotest.(check string) "flavor" (Detect.flavor_name d.Detect.flavor) log.Run_log.flavor;
  Alcotest.(check bool) "transparent" d.Detect.transparent log.Run_log.transparent;
  Alcotest.(check int) "run count" (List.length d.Detect.runs)
    (List.length log.Run_log.runs);
  Alcotest.(check int) "call profile size"
    (Method_id.Map.cardinal d.Detect.profile.Profile.calls)
    (Method_id.Map.cardinal log.Run_log.calls);
  (* every run record survives field by field (output excepted) *)
  List.iter2
    (fun (a : Marks.run_record) (b : Marks.run_record) ->
      Alcotest.(check int) "injection point" a.Marks.injection_point
        b.Marks.injection_point;
      Alcotest.(check bool) "injected" true (a.Marks.injected = b.Marks.injected);
      Alcotest.(check (option string)) "escaped" a.Marks.escaped b.Marks.escaped;
      Alcotest.(check int) "ncalls" a.Marks.calls b.Marks.calls;
      Alcotest.(check bool) "marks" true (a.Marks.marks = b.Marks.marks))
    d.Detect.runs log.Run_log.runs

let same_classification a b =
  List.map
    (fun (r : Classify.method_report) ->
      (Method_id.to_string r.Classify.id, r.Classify.verdict, r.Classify.calls))
    (Classify.reports a)
  = List.map
      (fun (r : Classify.method_report) ->
        (Method_id.to_string r.Classify.id, r.Classify.verdict, r.Classify.calls))
      (Classify.reports b)

let test_offline_classification () =
  let d = Lazy.force detection in
  let online = Classify.classify d in
  let offline = Run_log.classify (Run_log.load (Run_log.save d)) in
  Alcotest.(check bool) "online = offline" true (same_classification online offline)

let test_offline_exception_free () =
  let d = Lazy.force detection in
  let annotations = [ Method_id.make "Unit" "validateThenMutate" ] in
  let online = Classify.classify ~exception_free:annotations d in
  let offline =
    Run_log.classify ~exception_free:annotations (Run_log.load (Run_log.save d))
  in
  Alcotest.(check bool) "annotated online = offline" true
    (same_classification online offline);
  Alcotest.(check int) "discarded runs preserved" online.Classify.discarded_runs
    offline.Classify.discarded_runs

let test_file_roundtrip () =
  let d = Lazy.force detection in
  let path = Filename.temp_file "failatom" ".faillog" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Run_log.save_file d path;
      let log = Run_log.load_file path in
      Alcotest.(check int) "runs from file" (List.length d.Detect.runs)
        (List.length log.Run_log.runs))

let expect_bad text =
  match Run_log.load text with
  | _ -> Alcotest.failf "expected Bad_log for %S" text
  | exception Run_log.Bad_log _ -> ()

let test_malformed () =
  expect_bad "faillog 99\n";
  expect_bad "mark A.m atomic 3\n" (* record outside run *);
  expect_bad "run 1\nrun 2\n" (* nested run *);
  expect_bad "run 1\n" (* unterminated *);
  expect_bad "run x\n";
  expect_bad "gibberish record\n";
  expect_bad "run 1\nmark A.m maybe 3\nendrun\n"

(* A method id is [Class.method] with both parts non-empty, on every
   line that carries one; anything else is a [Bad_log] at that line,
   never an escaping [Invalid_argument]. *)
let test_malformed_method_ids () =
  List.iter
    (fun id ->
      List.iter
        (fun (text, line) ->
          match Run_log.load text with
          | _ -> Alcotest.failf "expected Bad_log for %S" text
          | exception Run_log.Bad_log (msg, got) ->
            Alcotest.(check int) (Printf.sprintf "line of %S" text) line got;
            Alcotest.(check string) "message" ("not a method id: " ^ id) msg)
        [ (Printf.sprintf "run 1\nmark %s atomic 0\nncalls 1\nendrun\n" id, 2);
          (Printf.sprintf "run 1\ninject %s E\nncalls 1\nendrun\n" id, 2);
          (Printf.sprintf "faillog 1\ncalls A.m 1\ncalls %s 2\n" id, 3) ])
    [ "Foo"; "Foo."; ".bar"; "." ];
  Alcotest.(check bool) "first dot splits" true
    (Method_id.of_string "A.b.c" = Ok (Method_id.make "A" "b.c"))

(* The CLI refuses the same ids with the usage exit code: a malformed
   log given to [classify], and [Foo.] or [.bar] as a method option
   (the daemon already refused those). *)
let test_cli_malformed_method_ids () =
  let log = Filename.temp_file "failatom" ".faillog" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      Out_channel.with_open_bin log (fun oc ->
          output_string oc "run 1\nmark Foo atomic 0\nncalls 1\nendrun\n");
      List.iter
        (fun args ->
          match Test_prod.cli args with
          | None -> ()
          | Some (code, text) ->
            Alcotest.(check int) (String.concat " " args ^ "\n" ^ text) 2 code)
        [ [ "classify"; log ];
          [ "detect"; "app:stdQ"; "--exception-free"; "Foo." ];
          [ "detect"; "app:stdQ"; "--exception-free"; ".bar" ];
          [ "mask"; "app:stdQ"; "--do-not-wrap"; "Foo." ] ])

(* [Method_id.of_string] inverts [to_string] and names what it refuses. *)
let test_method_id_parser () =
  List.iter
    (fun id ->
      Alcotest.(check bool) (Method_id.to_string id) true
        (Method_id.of_string (Method_id.to_string id) = Ok id))
    [ Method_id.make "A" "m"; Method_id.make "LinkedList" "add"; Method_id.make "C" "x.y" ];
  List.iter
    (fun s ->
      match Method_id.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error msg ->
        Alcotest.(check string) s (Printf.sprintf "%S is not of the form Class.method" s) msg)
    [ ""; "Foo"; "Foo."; ".bar"; "." ]

let suite =
  [ Alcotest.test_case "save/load round trip" `Quick test_roundtrip;
    Alcotest.test_case "offline classification" `Quick test_offline_classification;
    Alcotest.test_case "offline exception-free" `Quick test_offline_exception_free;
    Alcotest.test_case "file round trip" `Quick test_file_roundtrip;
    Alcotest.test_case "malformed logs rejected" `Quick test_malformed;
    Alcotest.test_case "malformed method ids rejected" `Quick test_malformed_method_ids;
    Alcotest.test_case "method id parser" `Quick test_method_id_parser;
    Alcotest.test_case "CLI: malformed method ids exit 2" `Quick
      test_cli_malformed_method_ids ]
