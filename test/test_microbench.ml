(* Tests for the benchmark-suite table and its artifact codec: every
   suite's synthetic rows round-trip through [to_json] and
   [validate_json], every missing required row is named, malformed
   documents (JSON's number grammar included) are rejected, and
   [write_json] reports unwritable paths as errors. *)

let suites = Microbench.suites

(* One synthetic row per required name, grouped the way Bechamel names
   them, with values [%.3f] prints exactly. *)
let rows_of (s : Microbench.suite) =
  List.mapi
    (fun i req -> { Microbench.name = s.id ^ "/" ^ req; ns_per_call = 0.25 *. float i })
    s.required

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_unique () =
  let unique l = List.length (List.sort_uniq compare l) = List.length l in
  Alcotest.(check bool) "ids unique" true (unique (List.map (fun s -> s.Microbench.id) suites));
  Alcotest.(check bool)
    "artifacts unique" true
    (unique (List.map (fun s -> s.Microbench.artifact) suites));
  Alcotest.(check string) "micro is the BENCH_5 suite" "BENCH_5.json" Microbench.micro.artifact;
  List.iter
    (fun (s : Microbench.suite) ->
      match Microbench.of_artifact (Filename.concat "some/dir" s.artifact) with
      | Some t -> Alcotest.(check string) ("suite of " ^ s.artifact) s.id t.id
      | None -> Alcotest.failf "%s maps to no suite" s.artifact)
    suites;
  Alcotest.(check bool) "unknown artifact" true (Microbench.of_artifact "BENCH_9.json" = None)

let test_roundtrip () =
  List.iter
    (fun (s : Microbench.suite) ->
      let rows = rows_of s in
      match Microbench.validate_json s (Microbench.to_json rows) with
      | Ok back -> Alcotest.(check bool) (s.id ^ " round-trips") true (back = rows)
      | Error e -> Alcotest.failf "%s: %s" s.id e)
    suites

let test_missing_rows_named () =
  List.iter
    (fun (s : Microbench.suite) ->
      List.iter
        (fun req ->
          let rows = List.filter (fun r -> not (contains r.Microbench.name req)) (rows_of s) in
          match Microbench.validate_json s (Microbench.to_json rows) with
          | Ok _ -> Alcotest.failf "%s: accepted without %s" s.id req
          | Error e ->
            if not (contains e req) then Alcotest.failf "%s: error %S does not name %s" s.id e req)
        s.required)
    suites

(* A suite demanding nothing, so only the schema is under test. *)
let schema_only = { Microbench.micro with required = [] }

let test_rejects () =
  List.iter
    (fun (what, doc) ->
      match Microbench.validate_json schema_only doc with
      | Ok _ -> Alcotest.failf "%s accepted: %s" what doc
      | Error _ -> ())
    [
      ("duplicate key", {|[{"name": "a", "name": "b", "ns_per_call": 1}]|});
      ("unknown key", {|[{"name": "a", "ns_per_sec": 1}]|});
      ("extra key", {|[{"name": "a", "ns_per_call": 1, "unit": "ns"}]|});
      ("trailing comma", {|[{"name": "a", "ns_per_call": 1},]|});
      ("trailing garbage", {|[{"name": "a", "ns_per_call": 1}] x|});
      ("negative value", {|[{"name": "a", "ns_per_call": -1}]|});
      ("plus sign", {|[{"name": "a", "ns_per_call": +1}]|});
      ("bare fraction", {|[{"name": "a", "ns_per_call": .5}]|});
      ("empty fraction", {|[{"name": "a", "ns_per_call": 1.}]|});
      ("leading zero", {|[{"name": "a", "ns_per_call": 01}]|});
      ("empty exponent", {|[{"name": "a", "ns_per_call": 1e}]|});
      ("not a number", {|[{"name": "a", "ns_per_call": "1"}]|});
    ]

let test_accepts_json_numbers () =
  List.iter
    (fun (lit, v) ->
      match
        Microbench.validate_json schema_only
          (Printf.sprintf {|[{"ns_per_call": %s, "name": "a"}]|} lit)
      with
      | Ok [ r ] -> Alcotest.(check (float 1e-9)) lit v r.Microbench.ns_per_call
      | Ok _ -> Alcotest.failf "%s: wrong row count" lit
      | Error e -> Alcotest.failf "%s rejected: %s" lit e)
    [ ("0", 0.0); ("-0", 0.0); ("10", 10.0); ("0.5", 0.5); ("1.25e2", 125.0); ("2E-1", 0.2);
      ("3e+0", 3.0) ]

(* [to_json] writes control characters as "\u00XX"; the validator must
   read back every escape JSON defines, so [write_json] accepts any
   row name. *)
let test_escapes () =
  let rows = [ { Microbench.name = "a\nb\x01c\"\\"; ns_per_call = 1.5 } ] in
  (match Microbench.validate_json schema_only (Microbench.to_json rows) with
  | Ok back -> Alcotest.(check bool) "control characters round-trip" true (back = rows)
  | Error e -> Alcotest.failf "own escapes rejected: %s" e);
  List.iter
    (fun (esc, want) ->
      match
        Microbench.validate_json schema_only
          (Printf.sprintf {|[{"name": "%s", "ns_per_call": 1}]|} esc)
      with
      | Ok [ r ] -> Alcotest.(check string) esc want r.Microbench.name
      | Ok _ -> Alcotest.failf "%s: wrong row count" esc
      | Error e -> Alcotest.failf "%s rejected: %s" esc e)
    [ ({|\b\f\r\t\/|}, "\b\012\r\t/"); ({|\u0041\u00e9|}, "A\xc3\xa9");
      ({|\uD83D\uDE00|}, "\xf0\x9f\x98\x80") ];
  List.iter
    (fun esc ->
      match
        Microbench.validate_json schema_only
          (Printf.sprintf {|[{"name": "%s", "ns_per_call": 1}]|} esc)
      with
      | Ok _ -> Alcotest.failf "%s accepted" esc
      | Error _ -> ())
    [ {|\u41|}; {|\u00g1|}; {|\x41|}; {|\ud800|}; {|\ud800\u0041|}; {|\udc00|} ];
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir (Printf.sprintf "tilesched-escape-%d.json" (Unix.getpid ())) in
  match Microbench.write_json schema_only path rows with
  | Ok _ -> Sys.remove path
  | Error e -> Alcotest.failf "write_json refused a control character: %s" e

let test_write_json () =
  let s = Microbench.micro in
  let rows = rows_of s in
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tilesched-microbench-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let expected = Filename.concat dir s.artifact in
      (match Microbench.write_json s dir rows with
      | Ok path -> Alcotest.(check string) "directory gets the artifact name" expected path
      | Error e -> Alcotest.fail e);
      let written = In_channel.with_open_bin expected In_channel.input_all in
      Alcotest.(check string) "bytes are to_json's" (Microbench.to_json rows) written;
      let missing = Filename.concat (Filename.concat dir "absent") s.artifact in
      (match Microbench.write_json s missing rows with
      | Ok _ -> Alcotest.fail "wrote into a missing directory"
      | Error e -> if not (contains e missing) then Alcotest.failf "error %S lacks the path" e);
      match Microbench.write_json s (Filename.concat dir "short.json") [] with
      | Ok _ -> Alcotest.fail "wrote an artifact without its required rows"
      | Error _ ->
        Alcotest.(check bool) "nothing written" false
          (Sys.file_exists (Filename.concat dir "short.json")))

let () =
  Alcotest.run "microbench"
    [
      ( "table",
        [ Alcotest.test_case "ids and artifacts unique" `Quick test_unique ] );
      ( "artifact",
        [
          Alcotest.test_case "every suite round-trips" `Quick test_roundtrip;
          Alcotest.test_case "each missing required row is named" `Quick test_missing_rows_named;
          Alcotest.test_case "malformed documents rejected" `Quick test_rejects;
          Alcotest.test_case "JSON numbers accepted" `Quick test_accepts_json_numbers;
          Alcotest.test_case "JSON string escapes" `Quick test_escapes;
          Alcotest.test_case "write_json" `Quick test_write_json;
        ] );
    ]
