(* The benchmark's own tests, run from the repository root:

     sh perfbench/run.sh --self-test

   - percentile: the histogram's percentiles and the median against a
     sorted-array oracle;
   - seeding: the same seed gives a byte-identical request-stream
     digest, a different seed a different one;
   - stall: SIGSTOP of the daemon in the middle of an open-loop phase
     shows up in the tail latency while the generator stays on
     schedule;
   - corrupt: a deliberately wrong expected reply fails the run, and
     the failed run leaves no daemon, socket or temp file behind. *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* ---------- percentile vs sorted array ---------- *)

let percentile_tests () =
  let rng = Prng.Xoshiro.create 42L in
  let oracle sorted p =
    let n = Array.length sorted in
    sorted.(max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) - 1)
  in
  List.iter
    (fun (label, n, gen) ->
      let xs = Array.init n (fun _ -> gen ()) in
      let sorted = Array.copy xs in
      Array.sort compare sorted;
      let h = Stats.Hist.create () in
      Array.iter (Stats.Hist.record h) xs;
      List.iter
        (fun p ->
          let exact = float_of_int (oracle sorted p) in
          let approx = Stats.Hist.percentile h p in
          check
            (Printf.sprintf "histogram %s n=%d p%g within 1/64" label n p)
            (Float.abs (approx -. exact) <= (exact /. 64.) +. 1.))
        [ 0.1; 1.; 25.; 50.; 90.; 99.; 99.9; 100. ])
    [ ("uniform", 10_000, fun () -> Prng.Xoshiro.int rng 1_000_000);
      ("small", 7, fun () -> Prng.Xoshiro.int rng 100);
      ("heavy-tail", 20_000, fun () -> int_of_float (Prng.Xoshiro.exponential rng 1e-4 ** 1.5));
      ("constant", 1000, fun () -> 12345) ];
  check "median even" (Stats.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "median odd" (Stats.median [| 5.; 1.; 3. |] = 3.)

(* ---------- runs of the benchmark itself ---------- *)

let exe = ref ""
let tilesched = ref ""

let run args =
  let out = Filename.temp_file ~temp_dir:".bench_build" "perfbench-test" ".out" in
  let cmd =
    Printf.sprintf "%s --exe %s %s > %s 2>&1" (Filename.quote !exe) (Filename.quote !tilesched)
      (String.concat " " args) (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let last_json text =
  match List.rev (String.split_on_char '\n' (String.trim text)) with l :: _ -> l | [] -> ""

let metric text name =
  (* Parse the human table line "  name   value unit". *)
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ n; v; _ ] when n = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)

let seeding_tests () =
  List.iter
    (fun w ->
      let d seed = String.trim (snd (run [ "--workload"; w; "--seed"; seed; "--digest" ])) in
      let a = d "1" and b = d "1" and c = d "2" in
      check (Printf.sprintf "%s: same seed, same digest" w) (a = b && String.length a = 32);
      check (Printf.sprintf "%s: other seed, other digest" w) (a <> c))
    [ "hot_hits"; "engine_mix"; "search_store" ]

let tmp_root = ".bench_build/perfbench-tmp"

let leftovers () =
  let files = try Array.to_list (Sys.readdir tmp_root) with Sys_error _ -> [] in
  let daemons =
    Array.to_list (Sys.readdir "/proc")
    |> List.filter (fun p ->
           match In_channel.with_open_bin (Printf.sprintf "/proc/%s/cmdline" p) In_channel.input_all with
           | s -> Option.is_some (String.index_opt s '\000') && (
               let parts = String.split_on_char '\000' s in
               List.exists (fun a -> String.length a >= String.length tmp_root
                                     && String.sub a 0 (String.length tmp_root) = tmp_root) parts)
           | exception _ -> false)
  in
  files @ daemons

(* A 600 ms SIGSTOP from the middle of a 0.8 s low-rate phase.  The
   generator keeps sending on schedule while the daemon is stopped, so
   its lag must stay far below the pause (a generator that blocked for
   the pause and then burst would show all of it), and latency counted
   from the scheduled send must carry the pause into the phase's tail:
   the median over slices straddles the stalled half, so it lands well
   above 10 % of the pause, where hot_hits' normal tail is tens of
   microseconds. *)
let stall_test () =
  let stall_ms = 600. in
  let code, text =
    run [ "--workload"; "hot_hits"; "--seed"; "1"; "--seconds"; "4"; "--trace"; "0"; "--stall-ms"; "600" ]
  in
  check "stall: run completes" (code = 0);
  let share v = Option.map (fun v -> v /. (stall_ms *. 1000.)) v in
  check "stall: pause shows in tail_us.low"
    (match share (metric text "tail_us.low") with Some s -> s >= 0.1 | None -> false);
  check "stall: generator stays on schedule"
    (match share (metric text "stall.lag_max_us") with Some s -> s < 0.25 | None -> false)

let corrupt_test () =
  let code, text =
    run [ "--workload"; "hot_hits"; "--seed"; "1"; "--seconds"; "2"; "--trace"; "0"; "--corrupt-expected" ]
  in
  check "corrupt: exits non-zero" (code <> 0);
  check "corrupt: reports correct=false" (
    let j = last_json text in
    contains j "\"correct\": false");
  check "corrupt: nothing left behind" (leftovers () = [])

let () =
  match Array.to_list Sys.argv with
  | [ _; main; cli ] ->
    exe := main;
    tilesched := cli;
    percentile_tests ();
    seeding_tests ();
    stall_test ();
    corrupt_test ();
    if !failures > 0 then begin
      Printf.printf "%d check(s) failed\n" !failures;
      exit 1
    end;
    print_endline "all perfbench checks passed"
  | _ ->
    prerr_endline "usage: tests PERFBENCH_EXE TILESCHED_EXE";
    exit 2
