open Lattice

type row = { name : string; ns_per_call : float }

type suite = {
  id : string;
  artifact : string;
  doc : string;
  required : string list;
  runner : quota:float -> exe:string option -> row list;
}

let staircase k =
  (* Exact staircase polyomino with ~4k+2 boundary letters. *)
  let cells =
    List.concat_map
      (fun i -> [ Zgeom.Vec.make2 i i; Zgeom.Vec.make2 i (i + 1) ])
      (List.init k Fun.id)
    @ [ Zgeom.Vec.make2 k k ]
  in
  Prototile.of_cells_anchored cells

let cross n =
  if n < 2 then invalid_arg "Microbench.cross: n must be at least 2";
  let cells =
    List.init n (fun j -> Zgeom.Vec.make2 0 j) @ List.init (n - 1) (fun i -> Zgeom.Vec.make2 (i + 1) 0)
  in
  Prototile.of_cells cells

(* Any two torus translates of the cross intersect (their row and column
   arms cannot both miss), so a cover uses at most one cross; with the
   monomino alongside there are exactly 1 + n^2 covers, and all but
   2n - 1 of them put a monomino on cell 0.  Cell selection is
   symmetric, so the branch share is exactly that cover share. *)
let skew_instance ~n =
  let period = Sublattice.of_basis [| [| n; 0 |]; [| 0; n |] |] in
  let mono = Prototile.of_cells [ Zgeom.Vec.zero 2 ] in
  (period, [ cross n; mono ])

let skew_root_share ~n =
  let period, prototiles = skew_instance ~n in
  let pool = Parallel.create ~jobs:1 in
  let zero = Zgeom.Vec.zero 2 in
  let mono_at_zero mt =
    List.exists
      (fun pc ->
        Prototile.size pc.Tiling.Multi.tile = 1
        && List.exists
             (fun o -> Zgeom.Vec.equal (Sublattice.reduce period o) zero)
             pc.Tiling.Multi.piece_offsets)
      (Tiling.Multi.pieces mt)
  in
  let total = Tiling.Search.count_torus_covers ~period ~prototiles ~pool () in
  let fat =
    List.length
      (Tiling.Search.cover_torus ~period ~prototiles ~max_solutions:max_int ~keep:mono_at_zero
         ~pool ())
  in
  float fat /. float total

let run_tests ~quota tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    List.sort Stdlib.compare (Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [])
  in
  List.filter_map
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) -> Some { name; ns_per_call = est }
      | _ -> None)
    rows

let skew_rows ~quota =
  let open Bechamel in
  (* n = 28: 785 covers, 93% of them under the single monomino-at-zero
     root branch (EXP-P3), at a sequential count cost small enough for
     the CI smoke run. *)
  let period, prototiles = skew_instance ~n:28 in
  let pool1 = Parallel.create ~jobs:1 in
  let pool4 = Parallel.create ~jobs:4 in
  let count pool () = Tiling.Search.count_torus_covers ~period ~prototiles ~pool () in
  let tests =
    Test.make_grouped ~name:"skew"
      [
        Test.make ~name:"skew-seq-j1" (Staged.stage (count pool1));
        Test.make ~name:"skew-steal-j4" (Staged.stage (count pool4));
      ]
  in
  Fun.protect
    ~finally:(fun () ->
      Parallel.shutdown pool1;
      Parallel.shutdown pool4)
    (fun () -> run_tests ~quota tests)

(* The EXP-L1 instance: I-tetromino rows on an 8x8 grid, leaders paying a
   +1.0/slot surcharge against a 30-unit battery.  Deterministic, so the
   lifetime-* rows are exact slot counts, not estimates. *)
let lifetime_instance ~classes ~epochs ~policy =
  let period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |] in
  let covers =
    Tiling.Search.distinct_torus_covers ~period ~prototiles:[ Prototile.tetromino `I ]
      ~max_classes:classes ()
  in
  match
    Lifetime.Rotation.make ~covers:(Lifetime.Rotation.balance covers) ~epoch:4 ~epochs ~policy
  with
  | Ok rot -> rot
  | Error e -> invalid_arg ("Microbench.lifetime_instance: " ^ e)

let lifetime_first_death rot =
  let duration = 1200 in
  let cfg =
    { (Netsim.Sim.default_config ~mac:(Lifetime.Rotation.mac rot)) with
      width = 8;
      height = 8;
      prototile = Prototile.tetromino `I;
      duration;
      workload = Netsim.Workload.Periodic { interval = 40 };
      faults =
        {
          Netsim.Faults.none with
          Netsim.Faults.battery = Some 30.0;
          extra_cost = Some (Lifetime.Rotation.extra_cost rot ~leader_cost:1.0);
        };
    }
  in
  match Netsim.Sim.first_death (Netsim.Sim.run cfg) with
  | Some t -> float_of_int t
  | None -> float_of_int duration

let lifetime_rows ~quota =
  let open Bechamel in
  let static = lifetime_instance ~classes:1 ~epochs:1 ~policy:Lifetime.Rotation.Round_robin in
  let rotate =
    lifetime_instance ~classes:4 ~epochs:12 ~policy:Lifetime.Rotation.Least_depleted_first
  in
  let slot_rows =
    [
      { name = "lifetime-static-first-death-slots"; ns_per_call = lifetime_first_death static };
      { name = "lifetime-rotate-4-first-death-slots"; ns_per_call = lifetime_first_death rotate };
    ]
  in
  let deployment = Sublattice.of_basis [| [| 8; 0 |]; [| 0; 8 |] |] in
  let repair tile =
    let base = Option.get (Tiling.Search.find_tiling tile) in
    let dead = List.hd (Tiling.Single.offsets base) in
    fun () ->
      match Lifetime.Repair.repair ~deployment base ~dead with
      | Ok r -> r
      | Error e -> invalid_arg ("Microbench: lifetime suite: repair failed: " ^ e)
  in
  let tests =
    Test.make_grouped ~name:"lifetime"
      [
        (* Minimal window (one wrapped row, 8 cells) vs one-ring growth
           (56 cells): the repair-latency-vs-window-size comparison of
           EXP-L1. *)
        Test.make ~name:"repair-solve-itet-row8" (Staged.stage (repair (Prototile.tetromino `I)));
        Test.make ~name:"repair-solve-stet-ring1" (Staged.stage (repair (Prototile.tetromino `S)));
      ]
  in
  List.sort Stdlib.compare (run_tests ~quota tests @ slot_rows)

(* The EXP-CORPUS instance: the full n <= 7 corpus (164 canonical classes)
   built fresh in a temp directory, next to a certificate store holding
   the same verdicts (written straight from the BN decisions, no
   search).  The warm rows compare one [find] against each resident
   tier; the coldstart rows open the tier, find one key, and close it -
   the store replays and re-validates its whole log before the first
   answer, the snapshot just mmaps, which is the asymmetry the corpus
   subsystem exists to exploit. *)
let corpus_bench_max_n = 7

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Build a fresh [n <= max_n] corpus in a temp directory, pass [f] the
   directory and the corpus inside it, and remove both afterwards. *)
let with_corpus ~suite ~max_n f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tilesched-%s-bench-%d" suite (Unix.getpid ()))
  in
  let corpus_dir = Filename.concat root "corpus" in
  let clean () =
    rm_rf corpus_dir;
    rm_rf root
  in
  clean ();
  Unix.mkdir root 0o755;
  Fun.protect ~finally:clean (fun () ->
      match Corpus.Campaign.run ~dir:corpus_dir ~max_n () with
      | Ok _ -> f ~root ~corpus_dir
      | Error e -> invalid_arg (Printf.sprintf "Microbench: %s suite: %s" suite e))

let corpus_rows ~quota =
  let open Bechamel in
  with_corpus ~suite:"corpus" ~max_n:corpus_bench_max_n (fun ~root ~corpus_dir ->
      let store_path = Filename.concat root "store.log" in
      let keys = ref [] in
      let store = Store.open_ store_path in
      Polyomino.enumerate_free_iter ~max_area:corpus_bench_max_n (fun ~area:_ tile ->
          let key = Store.key_of_prototile tile in
          keys := key :: !keys;
          Store.put store key
            (match Corpus.Campaign.decide tile with
            | Corpus.Campaign.Non_exact -> Store.No_tiling
            | Corpus.Campaign.Exact { tiling; certificate } ->
              Store.Found { tiling; certificate }));
      Store.close store;
      let keys = Array.of_list (List.rev !keys) in
      let snap =
        match Corpus.Snapshot.open_ corpus_dir with
        | Ok s -> s
        | Error e -> invalid_arg ("Microbench: corpus suite: " ^ e)
      in
      let store = Store.open_ store_path in
      let i = ref 0 in
      let next () =
        let k = keys.(!i) in
        i := (!i + 1) mod Array.length keys;
        k
      in
      let probe = keys.(Array.length keys / 2) in
      let tests =
        Test.make_grouped ~name:"corpus"
          [
            Test.make ~name:"corpus-mmap-find-warm"
              (Staged.stage (fun () -> Corpus.Snapshot.find snap (next ())));
            Test.make ~name:"corpus-store-find-warm"
              (Staged.stage (fun () -> Store.find store (next ())));
            Test.make ~name:"corpus-mmap-coldstart-find"
              (Staged.stage (fun () ->
                   match Corpus.Snapshot.open_ corpus_dir with
                   | Ok s -> Corpus.Snapshot.find s probe
                   | Error e -> invalid_arg e));
            Test.make ~name:"corpus-store-coldstart-find"
              (Staged.stage (fun () ->
                   let s = Store.open_ store_path in
                   let r = Store.find s probe in
                   Store.close s;
                   r));
          ]
      in
      let rows = run_tests ~quota tests in
      Store.close store;
      rows)

(* Every tile has area <= 5, so each canonical class is resident in the
   n <= 5 corpus the suite builds: every tile-search is a warm mmap
   hit, the workload the zero-copy splice path exists for.  The tiles
   are pre-canonicalized so both dialects take their splice road (the
   text engine's [Tiling_raw_r] and the loop-thread iovec path both
   require the request orientation to be the stored canonical one). *)
let server_small_tiles =
  List.map
    (fun (name, tile) -> (name, Symmetry.canonical tile))
    [ ("tet-S", Prototile.tetromino `S);
      ("tet-Z", Prototile.tetromino `Z);
      ("tet-L", Prototile.tetromino `L);
      ("tet-J", Prototile.tetromino `J);
      ("tet-T", Prototile.tetromino `T);
      ("tet-I", Prototile.tetromino `I);
      ("tet-O", Prototile.tetromino `O);
      ("rect2x2", Prototile.rect 2 2);
      ("pent-P", Prototile.pentomino `P);
      ("pent-L", Prototile.pentomino `L);
      ("pent-I", Prototile.pentomino `I);
      ("pent-X", Prototile.pentomino `X) ]

let server_rows ~quota ~exe =
  with_corpus ~suite:"server" ~max_n:5 (fun ~root ~corpus_dir ->
      let sock = Filename.concat root "server.sock" in
      let pid =
        let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close null)
          (fun () ->
            Unix.create_process exe
              [| exe; "serve"; "-s"; sock; "--corpus"; corpus_dir; "--cache"; "1024" |]
              null null Unix.stderr)
      in
      (* The socket file appearing means bind has happened; a successful
         probe connect means listen has too. *)
      let rec await n =
        let ready =
          Sys.file_exists sock
          &&
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              match Unix.connect fd (Unix.ADDR_UNIX sock) with
              | () -> true
              | exception Unix.Unix_error _ -> false)
        in
        if ready then ()
        else if n = 0 then invalid_arg "Microbench: server suite: server did not come up"
        else begin
          ignore (Unix.select [] [] [] 0.05);
          await (n - 1)
        end
      in
      await 200;
      let reaped = ref false in
      Fun.protect
        ~finally:(fun () ->
          if not !reaped then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
          end)
        (fun () ->
          let n = max 1_000 (int_of_float (quota *. 10_000.)) in
          let config =
            { Server.Loadgen.default with
              requests = n;
              clients = 32;
              tiles = server_small_tiles;
              ops = `Search_only }
          in
          (* Untimed warmup: fault in the corpus mmap, fill the
             server's payload memo and settle allocator state, so the
             measured runs compare steady states rather than cold
             starts. *)
          let warmup = { config with requests = 1_000 } in
          let (_ : Server.Loadgen.report) =
            Server.Frontend.with_connection ~path:sock (fun send ->
                Server.Loadgen.run_with ~send warmup)
          in
          let (_ : Server.Loadgen.report) =
            Server.Frontend.with_binary_connection ~path:sock (fun send ->
                Server.Loadgen.run_binary ~send warmup)
          in
          let text : Server.Loadgen.report =
            Server.Frontend.with_connection ~path:sock (fun send ->
                Server.Loadgen.run_with ~send config)
          in
          let binary : Server.Loadgen.report =
            Server.Frontend.with_binary_connection ~path:sock (fun send ->
                Server.Loadgen.run_binary ~send config)
          in
          let open_cfg =
            { Server.Loadgen.open_default with
              connections = 10_000;
              total = 20_000;
              binary = true;
              tiles = server_small_tiles;
              ops = `Search_only;
              send_shutdown = true }
          in
          let open_r = Server.Loadgen.run_open ~path:sock open_cfg in
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          reaped := true;
          let lat = open_r.Server.Loadgen.latency in
          List.sort Stdlib.compare
            [
              { name = "server-text-warm-rps"; ns_per_call = text.Server.Loadgen.throughput };
              { name = "server-binary-warm-rps";
                ns_per_call = binary.Server.Loadgen.throughput };
              { name = "server-binary-vs-text-speedup";
                ns_per_call =
                  (if text.Server.Loadgen.throughput > 0.0 then
                     binary.Server.Loadgen.throughput /. text.Server.Loadgen.throughput
                   else 0.0) };
              { name = "server-open-10k-p50-us"; ns_per_call = lat.Netsim.Stats.p50_latency };
              { name = "server-open-10k-p95-us"; ns_per_call = lat.Netsim.Stats.p95_latency };
              { name = "server-open-10k-p99-us"; ns_per_call = lat.Netsim.Stats.p99_latency };
              { name = "server-open-10k-dropped";
                ns_per_call = float_of_int open_r.Server.Loadgen.dropped };
            ]))

let micro_rows ~quota =
  let open Bechamel in
  let cheb2 = Prototile.chebyshev_ball ~dim:2 2 in
  let cheb2_tiling = Option.get (Tiling.Search.find_tiling cheb2) in
  let cheb2_sched = Core.Schedule.of_tiling cheb2_tiling in
  let cheb1 = Prototile.chebyshev_ball ~dim:2 1 in
  let cheb1_tiling = Option.get (Tiling.Search.find_tiling cheb1) in
  let staircase_word = Polyomino.boundary_word (staircase 20) in
  let period = Tiling.Single.period cheb2_tiling in
  let probe = Zgeom.Vec.make2 123 (-456) in
  let sz_period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |] in
  let s_tet = Prototile.tetromino `S and z_tet = Prototile.tetromino `Z in
  (* EXP-P2 workload: S/Z tetrominoes on the 4x8 torus, all 1024
     solutions, sequentially (jobs = 1).  [torus-all-*] is pure
     enumeration - the solver comparison proper; [torus-mat-*] is the
     end-to-end materializing search, where both solvers pay [Multi.t]
     construction and retention (the Amdahl floor EXP-P2 documents).
     [*-bitmask] is the {!Tiling.Search} kernel, [*-backtracking] the
     {!Tiling_oracle} reference backtracker. *)
  let sz48_period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 8 |] |] in
  let sz48 = [ s_tet; z_tet ] in
  let seq_pool = Parallel.create ~jobs:1 in
  let g8, _ = Coloring.Graph.lattice_window ~prototile:cheb1 ~width:8 ~height:8 in
  let sim_cfg =
    { (Netsim.Sim.default_config
         ~mac:(Netsim.Mac.lattice_tdma (Core.Schedule.of_tiling cheb1_tiling)))
      with width = 10; height = 10; prototile = cheb1; duration = 100 }
  in
  let tests =
    Test.make_grouped ~name:"tilesched"
      [
        Test.make ~name:"bn-exactness-staircase20"
          (Staged.stage (fun () -> Boundary_word.find_factorization staircase_word));
        Test.make ~name:"boundary-word-cheb2"
          (Staged.stage (fun () -> Polyomino.boundary_word cheb2));
        Test.make ~name:"lattice-tilings-cheb2"
          (Staged.stage (fun () -> Tiling.Search.lattice_tilings cheb2));
        Test.make ~name:"schedule-of-tiling-cheb2"
          (Staged.stage (fun () -> Core.Schedule.of_tiling cheb2_tiling));
        Test.make ~name:"slot-at" (Staged.stage (fun () -> Core.Schedule.slot_at cheb2_sched probe));
        Test.make ~name:"coset-reduce" (Staged.stage (fun () -> Sublattice.reduce period probe));
        Test.make ~name:"collision-check-cheb1"
          (Staged.stage (fun () ->
               Core.Collision.is_collision_free_theorem1 cheb1_tiling
                 (Core.Schedule.of_tiling cheb1_tiling)));
        Test.make ~name:"torus-search-SZ-first"
          (Staged.stage (fun () ->
               Tiling.Search.cover_torus ~period:sz_period ~prototiles:[ s_tet; z_tet ]
                 ~max_solutions:1 ()));
        Test.make ~name:"torus-all-backtracking"
          (Staged.stage (fun () ->
               Tiling_oracle.count_torus_covers ~period:sz48_period ~prototiles:sz48 ()));
        Test.make ~name:"torus-all-bitmask"
          (Staged.stage (fun () ->
               Tiling.Search.count_torus_covers ~period:sz48_period ~prototiles:sz48
                 ~pool:seq_pool ()));
        Test.make ~name:"torus-mat-backtracking"
          (Staged.stage (fun () ->
               Tiling_oracle.cover_torus ~period:sz48_period ~prototiles:sz48
                 ~max_solutions:max_int ()));
        Test.make ~name:"torus-mat-bitmask"
          (Staged.stage (fun () ->
               Tiling.Search.cover_torus ~period:sz48_period ~prototiles:sz48
                 ~max_solutions:max_int ~pool:seq_pool ()));
        Test.make ~name:"certificate-check-cheb1"
          (Staged.stage
             (let cert = Core.Certificate.build cheb1_tiling in
              fun () -> Core.Certificate.check cert));
        Test.make ~name:"dsatur-8x8" (Staged.stage (fun () -> Coloring.Dsatur.color g8));
        Test.make ~name:"sim-100-slots-10x10" (Staged.stage (fun () -> Netsim.Sim.run sim_cfg));
      ]
  in
  run_tests ~quota tests

(* ------------------------------------------------------------------ *)
(* The suite table                                                     *)
(* ------------------------------------------------------------------ *)

let suites =
  [
    { id = "micro"; artifact = "BENCH_5.json";
      doc = "EXP-P2 kernel vs reference backtracker, plus one row per hot subsystem";
      required =
        [ "torus-all-backtracking"; "torus-all-bitmask"; "torus-mat-backtracking";
          "torus-mat-bitmask" ];
      runner = (fun ~quota ~exe:_ -> micro_rows ~quota) };
    { id = "skew"; artifact = "BENCH_6.json";
      doc = "EXP-P3 skewed instance, sequential vs work-stealing at jobs=4";
      required = [ "skew-seq-j1"; "skew-steal-j4" ];
      runner = (fun ~quota ~exe:_ -> skew_rows ~quota) };
    { id = "lifetime"; artifact = "BENCH_7.json";
      doc = "EXP-L1 static vs rotating first-death slots and repair-solver timings";
      required = [ "lifetime-static"; "lifetime-rotate"; "repair-solve" ];
      runner = (fun ~quota ~exe:_ -> lifetime_rows ~quota) };
    { id = "corpus"; artifact = "BENCH_8.json";
      doc = "EXP-CORPUS mmap snapshot vs certificate store lookups, warm and cold-start";
      required =
        [ "corpus-mmap-find-warm"; "corpus-store-find-warm"; "corpus-mmap-coldstart-find";
          "corpus-store-coldstart-find" ];
      runner = (fun ~quota ~exe:_ -> corpus_rows ~quota) };
    { id = "server"; artifact = "BENCH_10.json";
      doc = "EXP-SRV2 binary vs text throughput and 10k-connection open-loop latency";
      required =
        [ "server-text-warm-rps"; "server-binary-warm-rps"; "server-binary-vs-text-speedup";
          "server-open-10k-p50-us"; "server-open-10k-p95-us"; "server-open-10k-p99-us";
          "server-open-10k-dropped" ];
      runner =
        (fun ~quota ~exe ->
          match exe with
          | Some exe -> server_rows ~quota ~exe
          | None -> invalid_arg "Microbench.run: the server suite needs ~exe") };
  ]

let micro = List.find (fun s -> s.id = "micro") suites

let of_artifact path =
  let base = Filename.basename path in
  List.find_opt (fun s -> s.artifact = base) suites

let run ?(quota = 0.5) ?exe suite =
  if quota <= 0.0 then invalid_arg "Microbench.run: quota must be positive";
  suite.runner ~quota ~exe

(* ------------------------------------------------------------------ *)
(* JSON artifact                                                       *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n  {\"name\": \"%s\", \"ns_per_call\": %.3f}" (escape r.name)
           r.ns_per_call))
    rows;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* A strict recursive-descent parser for exactly the shape [to_json]
   emits (plus whitespace and key-order freedom), hand-rolled because
   the dependency budget has no JSON library.  Strictness is the point:
   the artifact is machine-diffed, so anything unexpected is an error,
   not something to skip over. *)
exception Bad of string

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let validate_json suite s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents buf
      | '\\' ->
        incr pos;
        (if !pos >= n then fail "truncated escape"
         else
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | _ -> fail "unsupported escape");
        incr pos;
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ()
  in
  (* JSON's number grammar and nothing wider: an optional minus, "0" or
     a nonzero digit run, an optional fraction and an optional exponent,
     each with at least one digit.  "+1", ".5", "1." and "01" fail here
     instead of reaching float_of_string's laxer OCaml syntax. *)
  let parse_number () =
    skip_ws ();
    let start = !pos in
    let accept p = !pos < n && p s.[!pos] && (incr pos; true) in
    let digit = function '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (accept digit) then fail "malformed number";
      while accept digit do () done
    in
    ignore (accept (( = ) '-'));
    if accept (( = ) '0') then (if accept digit then fail "malformed number (leading zero)")
    else digits ();
    if accept (( = ) '.') then digits ();
    if accept (function 'e' | 'E' -> true | _ -> false) then begin
      ignore (accept (function '+' | '-' -> true | _ -> false));
      digits ()
    end;
    float_of_string (String.sub s start (!pos - start))
  in
  let parse_row () =
    expect '{';
    let name = ref None and ns = ref None in
    let parse_field () =
      skip_ws ();
      let key = parse_string () in
      expect ':';
      match key with
      | "name" -> (
        match !name with
        | Some _ -> fail "duplicate \"name\" key"
        | None ->
          skip_ws ();
          name := Some (parse_string ()))
      | "ns_per_call" -> (
        match !ns with
        | Some _ -> fail "duplicate \"ns_per_call\" key"
        | None ->
          let v = parse_number () in
          if not (v >= 0.0) then fail "ns_per_call must be a non-negative number";
          ns := Some v)
      | k -> fail (Printf.sprintf "unexpected key %S" k)
    in
    parse_field ();
    expect ',';
    parse_field ();
    expect '}';
    match (!name, !ns) with
    | Some name, Some ns_per_call -> { name; ns_per_call }
    | _ -> fail "row must have both \"name\" and \"ns_per_call\""
  in
  try
    expect '[';
    skip_ws ();
    let rows =
      if peek () = Some ']' then begin
        incr pos;
        []
      end
      else begin
        let acc = ref [ parse_row () ] in
        let continue = ref true in
        while !continue do
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            acc := parse_row () :: !acc
          | _ -> continue := false
        done;
        expect ']';
        List.rev !acc
      end
    in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after array";
    let missing =
      List.filter
        (fun req -> not (List.exists (fun r -> contains_substring r.name req) rows))
        suite.required
    in
    if missing <> [] then Error ("missing required benchmark rows: " ^ String.concat ", " missing)
    else Ok rows
  with Bad msg -> Error msg

let write_json suite path rows =
  let path =
    if Sys.file_exists path && Sys.is_directory path then Filename.concat path suite.artifact
    else path
  in
  let out = to_json rows in
  match validate_json suite out with
  | Error msg -> Error ("refusing to write invalid artifact: " ^ msg)
  | Ok _ -> (
    match Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc out) with
    | () -> Ok path
    | exception Sys_error msg -> Error ("cannot write artifact: " ^ msg))
