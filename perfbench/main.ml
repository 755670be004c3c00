(* perfbench: the repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed, spawns the real
   [tilesched] binary, drives it through its socket and CLI, checks
   every reply against an in-process oracle, and prints a metrics table
   followed by one JSON result line.  See README.md. *)

module Protocol = Server.Protocol
module Hist = Stats.Hist

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
  corrupt : bool;  (** test hook: corrupt one expected reply *)
  stall_ms : int;  (** test hook: SIGSTOP the daemon mid low-rate phase *)
  digest : bool;  (** print the request-stream digest and exit *)
}

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--exe PATH] [--digest]";
  exit 2

let parse_args () =
  let o =
    ref { workload = ""; seed = 1; seconds = 10.; trace = false;
          exe = ".bench_build/default/bin/tilesched.exe"; corrupt = false; stall_ms = 0;
          digest = false }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: tl -> o := { !o with workload = v }; go tl
    | "--seed" :: v :: tl -> o := { !o with seed = int_of_string v }; go tl
    | "--seconds" :: v :: tl -> o := { !o with seconds = float_of_string v }; go tl
    | "--trace" :: v :: tl -> o := { !o with trace = v = "1" }; go tl
    | "--exe" :: v :: tl -> o := { !o with exe = v }; go tl
    | "--corrupt-expected" :: tl -> o := { !o with corrupt = true }; go tl
    | "--stall-ms" :: v :: tl -> o := { !o with stall_ms = int_of_string v }; go tl
    | "--digest" :: tl -> o := { !o with digest = true }; go tl
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  !o

(* ---------- run state ---------- *)

type run = {
  o : opts;
  spec : Work.spec;
  dir : string;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** anything that makes the run incorrect *)
  mutable e2e : (string * float * string) list;  (** name, value, unit *)
  mutable layer : (string * float * string) list;
}

let problem r msg =
  Printf.eprintf "perfbench: %s\n%!" msg;
  r.problems <- msg :: r.problems

let e2e r name v unit = r.e2e <- (name, v, unit) :: r.e2e
let layer r name v unit = r.layer <- (name, v, unit) :: r.layer

let count r (res : Gen.result) =
  r.attempted <- r.attempted + res.Gen.attempted;
  r.failed <- r.failed + res.Gen.wrong + res.Gen.dropped

let secs_since t0 = float_of_int (Stats.now_ns () - t0) /. 1e9

(* ---------- daemon ---------- *)

let sock r = Filename.concat r.dir "d.sock"
let log r = Filename.concat r.dir "daemon.log"

(* The admission bound is raised from 512 so that a host stall shows
   up as latency rather than as [overloaded] refusals.  The daemon runs
   on a CPU of its own (see [Proc.spawn]). *)
let spawn_daemon r args =
  (try Sys.remove (sock r) with Sys_error _ -> ());
  Proc.spawn ~log:(log r) ~pinned:true r.o.exe ([ "serve"; "-s"; sock r; "-j"; "1"; "--queue"; "65536" ] @ args)

let connect_when_up r pid ~connections cat =
  let t0 = Stats.now_ns () in
  let rec go () =
    match Gen.connect ~path:(sock r) ~connections cat with
    | g -> g
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if (not (Proc.alive pid)) || secs_since t0 > 60. then
        failwith ("daemon did not come up; see " ^ log r)
      else begin
        Unix.sleepf 0.0005;
        go ()
      end
  in
  go ()

let control r req =
  Server.Frontend.with_connection ~path:(sock r) (fun send ->
      match send [ Protocol.request_to_string req ] with
      | [ line ] -> Protocol.response_of_string line
      | _ -> Error "no reply")

let stats r =
  match control r Protocol.Stats with
  | Ok (_, Protocol.Stats_r s) -> s
  | _ -> failwith "stats request failed"

let stop_daemon r pid =
  (try ignore (control r Protocol.Shutdown) with Unix.Unix_error _ | End_of_file -> ());
  let t0 = Stats.now_ns () in
  while Proc.alive pid && secs_since t0 < 10. do
    Unix.sleepf 0.005
  done;
  Proc.kill pid

(* ---------- the serving phases ---------- *)

type layout = { tp_cap : int; low_n : int; high_n : int; ladder_n : int list }

let layout (spec : Work.spec) seconds ~tp_cap =
  let n rate share = max 1 (int_of_float (rate *. seconds *. share)) in
  let steps = List.length spec.Work.ladder in
  { tp_cap; low_n = n spec.low_rps Work.low_share; high_n = n spec.high_rps Work.high_share;
    ladder_n =
      List.map (fun rate -> n rate (Work.ladder_share /. float_of_int steps)) spec.Work.ladder }

let total l = l.tp_cap + l.low_n + l.high_n + List.fold_left ( + ) 0 l.ladder_n

let us ns = ns /. 1000.

(* [store_snapshot] = (daemon store, copy): the store is copied as the
   high-rate phase begins, for the traced replay to start from. *)
let serve ?store_snapshot r ~args ~(cat : Gen.catalogue) ~(plan : Work.plan) ~lay =
  let spec = r.spec and o = r.o in
  let probe = plan.Work.warm.(0) in
  (* Set-up, from spawn to the first verified reply, median of several:
     setup_s is the daemon's CPU over that span (all its threads), and
     setup_wall_s its wall time.  Only the CPU figure is gated: the
     schedstat clock leaves out what the host steals, whereas the wall
     time of these few milliseconds doubles when the host wakes an idle
     vCPU late. *)
  let spawns = 21 in
  let setup = Array.make spawns 0. and setup_cpu = Array.make spawns 0. in
  let pid = ref 0 in
  for i = 0 to spawns - 1 do
    let t0 = Stats.now_ns () in
    let p = spawn_daemon r args in
    let g = connect_when_up r p ~connections:1 cat in
    let ok = Gen.one_shot g plan.Work.warm.(0) in
    setup.(i) <- secs_since t0;
    setup_cpu.(i) <- float_of_int (Proc.cpu_ns p) /. 1e9;
    Gen.close g;
    r.attempted <- r.attempted + 1;
    if not ok then begin
      r.failed <- r.failed + 1;
      problem r (Printf.sprintf "setup probe (request %d) answered wrongly" probe)
    end;
    if i < spawns - 1 then Proc.kill p else pid := p
  done;
  let pid = !pid in
  e2e r "setup_s" (Stats.median setup_cpu) "s";
  e2e r "setup_wall_s" (Stats.median setup) "s";
  let g = Gen.connect ~path:(sock r) ~connections:2 cat in
  Fun.protect ~finally:(fun () -> Gen.close g) @@ fun () ->
  let min_per_slice = int_of_float (Float.ceil (10. /. (1. -. (spec.Work.tail_pct /. 100.)))) in
  let warm = Gen.closed_loop g ~stream:plan.Work.warm ~start:0 ~window:spec.Work.window
      ~duration_s:60. ~cap:(Array.length plan.Work.warm) in
  count r warm;
  (* Phases take consecutive slices of the stream. *)
  let pos = ref 0 in
  let slice n = let s = !pos in pos := !pos + n; s in
  let stream = plan.Work.stream in
  let tp_start = slice lay.tp_cap in
  let cpu_at = Array.make (Gen.max_slices + 1) 0 in
  let tp =
    Gen.closed_loop g ~nslices:Gen.max_slices
      ~on_slice:(fun k -> cpu_at.(k) <- Proc.cpu_ns pid)
      ~stream ~start:tp_start ~window:spec.Work.window
      ~duration_s:(o.seconds *. Work.tp_share)
      ~cap:(if plan.Work.wrap then max_int else lay.tp_cap)
  in
  count r tp;
  let open_phase ?stall rate n =
    let start = slice n in
    let res =
      Gen.open_loop ?stall ~min_per_slice g ~stream ~start ~rate ~duration_s:(float_of_int n /. rate)
    in
    count r res;
    res
  in
  let stall =
    if o.stall_ms = 0 then None
    else Some (o.stall_ms * 1_000_000, (fun () -> Unix.kill pid Sys.sigstop), fun () -> Unix.kill pid Sys.sigcont)
  in
  let low = open_phase ?stall spec.Work.low_rps lay.low_n in
  Option.iter (fun (src, dst) -> Proc.copy_file src dst) store_snapshot;
  let s0 = Proc.sample pid and st0 = stats r in
  let high_start = !pos in
  let high = open_phase spec.Work.high_rps lay.high_n in
  let s1 = Proc.sample pid and st1 = stats r in
  let ladder =
    if o.trace then []
    else List.map2 (fun rate n -> (rate, open_phase rate n)) spec.Work.ladder lay.ladder_n
  in
  let hwm = Proc.vm_hwm_kb pid in
  stop_daemon r pid;
  let tail hs = Gen.sliced_pct hs spec.Work.tail_pct in
  let p50 hs = Gen.sliced_pct hs 50. in
  let d = Proc.delta s0 s1 in
  let completed_high = float_of_int (max 1 high.Gen.completed) in
  e2e r "throughput_rps" (Stats.median tp.Gen.rates) "req/s";
  e2e r "p50_us.low" (us (p50 low.Gen.lat)) "us";
  e2e r "tail_us.low" (us (tail low.Gen.lat)) "us";
  e2e r "p50_us.high" (us (p50 high.Gen.lat)) "us";
  e2e r "tail_us.high" (us (tail high.Gen.lat)) "us";
  (* Daemon CPU per request at saturation, over the slices in which the
     closed loop was still sending. *)
  let cpu_per_req =
    let k = if tp.Gen.sending_slices = 0 then Gen.max_slices else tp.Gen.sending_slices in
    let done_ =
      if tp.Gen.sending_slices = 0 then tp.Gen.completed
      else Array.fold_left ( + ) 0 (Array.sub tp.Gen.done_in 0 k)
    in
    float_of_int (cpu_at.(k) - cpu_at.(0)) /. 1000. /. float_of_int (max 1 done_)
  in
  e2e r "cpu_us_per_req" cpu_per_req "us";
  let limit_ns = spec.Work.limit_us *. 1000. in
  let sustained (rate, (res : Gen.result)) =
    res.Gen.wrong = 0 && res.Gen.dropped = 0
    && tail res.Gen.lat <= limit_ns
    && float_of_int res.Gen.outstanding_at_end <= Float.max 2. (rate *. limit_ns /. 1e9)
  in
  let slo = List.fold_left (fun acc (rate, res) -> if sustained (rate, res) then rate else acc) 0. ladder in
  if not o.trace then e2e r "slo_rps" slo "req/s";
  let lag = Array.concat (low.Gen.lag :: high.Gen.lag :: List.map (fun (_, res) -> res.Gen.lag) ladder) in
  let lag_p99 = us (Gen.sliced_pct lag 99.) in
  if o.stall_ms = 0 && lag_p99 > Work.lag_bound_us then
    problem r (Printf.sprintf "void run: generator lag p99 %.0f us exceeds %.0f us" lag_p99 Work.lag_bound_us);
  layer r "client.gen_lag_us" lag_p99 "us";
  if o.stall_ms > 0 then
    Printf.printf "  stall.lag_max_us %.1f us\n" (us (float_of_int (Gen.merged low.Gen.lag).Hist.max));
  (* The numbers the traced run attributes to layers. *)
  let loop = d.Proc.loop and others = d.Proc.others in
  let per x = float_of_int x /. completed_high in
  layer r "evloop.loop_cpu_us_per_req" (per loop.Proc.cpu_ns /. 1000.) "us";
  layer r "evloop.read_syscalls_per_req" (per loop.Proc.syscr) "count";
  layer r "evloop.write_syscalls_per_req" (per loop.Proc.syscw) "count";
  layer r "evloop.bytes_out_per_req" (per loop.Proc.wchar) "bytes";
  layer r "evloop.ctxsw_per_req" (per loop.Proc.ctxsw) "count";
  layer r "engine.cpu_us_per_req" (per others.Proc.cpu_ns /. 1000.) "us";
  let dst f = float_of_int (f st1 - f st0) in
  let served = Float.max 1. (dst (fun s -> s.Protocol.served)) in
  let searches = dst (fun s -> s.Protocol.searches) in
  layer r "engine.searches_per_req" (searches /. served) "count";
  layer r "engine.coalesced_per_search" (dst (fun s -> s.Protocol.coalesced) /. Float.max 1. searches) "ratio";
  let hits = dst (fun s -> s.Protocol.cache_hits) and misses = dst (fun s -> s.Protocol.cache_misses) in
  layer r "cache.hit_ratio" (hits /. Float.max 1. (hits +. misses)) "ratio";
  layer r "cache.evictions_per_req" (dst (fun s -> s.Protocol.cache_evictions) /. served) "count";
  layer r "corpus.hit_share" (dst (fun s -> s.Protocol.corpus_hits) /. served) "ratio";
  layer r "store.hit_share" (dst (fun s -> s.Protocol.store_hits) /. served) "ratio";
  (* Human-readable detail. *)
  let show name (res : Gen.result) =
    Printf.printf "  %-14s sent=%d ok=%d wrong=%d dropped=%d p50=%.1fus p%g=%.1fus lag_p50=%.1fus lag_p99=%.1fus\n" name
      res.Gen.attempted res.Gen.completed res.Gen.wrong res.Gen.dropped
      (us (p50 res.Gen.lat)) spec.Work.tail_pct (us (tail res.Gen.lat))
      (us (Gen.sliced_pct res.Gen.lag 50.)) (us (Gen.sliced_pct res.Gen.lag 99.))
  in
  show "warm-up" warm;
  show "closed-loop" tp;
  show "low" low;
  show "high" high;
  List.iter (fun (rate, res) -> show (Printf.sprintf "ladder@%.0f" rate) res) ladder;
  (hwm, d, completed_high, high_start, lay.high_n)

(* ---------- workloads ---------- *)

let build_corpus r ~n ~jobs =
  let dir = Filename.concat r.dir "corpus" in
  let t0 = Stats.now_ns () in
  let pid =
    Proc.spawn ~log:(Filename.concat r.dir "build.log") r.o.exe
      [ "corpus"; "build"; "-d"; dir; "-n"; string_of_int n; "-j"; string_of_int jobs ]
  in
  let code, cpu, pool_cpu = Proc.wait pid in
  let wall = secs_since t0 in
  if code <> 0 then failwith "corpus build failed";
  (dir, wall, cpu, pool_cpu)

let open_snapshot dir =
  match Corpus.Snapshot.open_ dir with Ok s -> s | Error e -> failwith ("corpus: " ^ e)

let finish_oracle r (cat, resps, errors) =
  List.iter (fun e -> problem r ("oracle: " ^ e)) errors;
  if r.o.corrupt then begin
    let e = cat.Gen.expected.(0) in
    let b = Bytes.of_string e in
    let i = String.length e / 2 in
    Bytes.set b i (Char.chr ((Char.code e.[i] + 1) land 0xff));
    cat.Gen.expected.(0) <- Bytes.to_string b
  end;
  (cat, resps)

(* Serve [plan] and, on a traced run, replay the high-rate phase
   through the layers. *)
let serve_and_trace ?store_snapshot r ~args ~plan ~lay ~corpus ~cache ~(build : Layers.build) (cat, resps) =
  let hwm, d, completed, high_start, high_n = serve ?store_snapshot r ~args ~cat ~plan ~lay in
  let store_seed = Option.map snd store_snapshot in
  if r.o.trace then begin
    let len = Array.length plan.Work.stream in
    let stream = Array.init high_n (fun k -> plan.Work.stream.((high_start + k) mod len)) in
    let daemon_cpu_us = float_of_int (d.Proc.loop.Proc.cpu_ns + d.Proc.others.Proc.cpu_ns) /. 1000. /. completed in
    let inp =
      { Layers.dialect = r.spec.Work.dialect; requests = plan.Work.requests; responses = resps; stream;
        corpus; store_seed; cache_capacity = cache; scratch = r.dir }
    in
    List.iter (fun (n, v, u) -> layer r n v u) (Layers.run inp ~build ~daemon_cpu_us)
  end;
  hwm

let corpus_workload r ~n ~jobs ~plan_of =
  let dir, build_s, build_cpu_s, pool_cpu_s = build_corpus r ~n ~jobs in
  let bytes = Proc.du dir in
  e2e r "build_s" build_s "s";
  e2e r "build_cpu_s" build_cpu_s "s";
  e2e r "corpus_bytes" (float_of_int bytes) "bytes";
  let snap = open_snapshot dir in
  let plan = plan_of () in
  let oracle = finish_oracle r (Work.oracle ~corpus:snap ~dialect:r.spec.Work.dialect plan.Work.requests) in
  let lay = layout r.spec r.o.seconds ~tp_cap:Work.stream_len in
  let build = { Layers.build_s; pool_cpu_s; jobs; corpus_dir = Some dir; bytes } in
  let hwm =
    serve_and_trace r ~args:[ "--corpus"; dir ] ~plan ~lay ~corpus:(Some snap) ~cache:256
      ~build oracle
  in
  (dir, hwm)

let a000105 = [| 1; 1; 2; 5; 12; 35; 108; 369; 1285; 4655 |]

(* Campaign output: OEIS A000105 class counts (6 473 classes, 939 of
   them exact, up to area 10) and a full offline re-proof. *)
let check_campaign r dir =
  let bands = Corpus.Snapshot.bands (open_snapshot dir) in
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 bands in
  List.iter
    (fun b ->
      let n = b.Corpus.Layout.n in
      if b.Corpus.Layout.classes <> a000105.(n - 1) then
        problem r (Printf.sprintf "band %d: %d classes, A000105 says %d" n b.Corpus.Layout.classes a000105.(n - 1)))
    bands;
  let classes = sum (fun b -> b.Corpus.Layout.classes) and exact = sum (fun b -> b.Corpus.Layout.exact) in
  if classes <> 6473 || exact <> 939 then
    problem r (Printf.sprintf "corpus totals %d classes / %d exact, expected 6473 / 939" classes exact);
  match Corpus.Snapshot.verify ~dir with Ok _ -> () | Error e -> problem r ("corpus verify: " ^ e)

(* search_store's closed loop consumes its stream once (each fresh tile
   is searched once), so the stream is sized for about twice the
   workload's closed-loop throughput on the reference host; should a
   faster daemon exhaust it, its rate and CPU per request count only the
   slices in which it was still sending. *)
let search_store_cap_rps = 2_000.

let search_store_layout spec seconds =
  layout spec seconds ~tp_cap:(int_of_float (search_store_cap_rps *. seconds *. Work.tp_share))

let plan_for r =
  let o = r.o in
  match r.spec.Work.name with
  | "hot_hits" -> Work.plan_hot_hits ~seed:o.seed ~classes:(Work.canonical_classes 10)
  | "engine_mix" -> Work.plan_engine_mix ~seed:o.seed ~classes:(Work.canonical_classes 10)
  | _ -> Work.plan_search_store ~seed:o.seed ~total:(total (search_store_layout r.spec o.seconds))

let run_workload r =
  let mb kb = float_of_int kb /. 1024. in
  match r.spec.Work.name with
  | "hot_hits" | "engine_mix" ->
    (* build_cpu_s comes from a single-job build: at -j 2 the build's CPU
       time swings with how the host schedules the two domains.  The
       traced run builds at -j 2 for parallel.busy_share; the corpus is
       byte-identical either way. *)
    let jobs = if r.o.trace then 2 else 1 in
    let dir, hwm = corpus_workload r ~n:10 ~jobs ~plan_of:(fun () -> plan_for r) in
    e2e r "peak_rss_mb" (mb hwm) "MiB";
    check_campaign r dir
  | "search_store" ->
    (* The store is seeded in-process with the campaign's verdicts for
       every polyomino of area <= 9, three times over (the median times
       are reported; the last store is served). *)
    let path = Filename.concat r.dir "store.log" in
    let seed_store () =
      Proc.rm_rf path;
      let t0 = Stats.now_ns () and c0 = Unix.times () in
      let store = Store.open_ path in
      Lattice.Polyomino.enumerate_free_iter ~max_area:9 (fun ~area:_ t ->
          let key = Store.key_of_prototile t in
          match Corpus.Campaign.decide t with
          | Corpus.Campaign.Non_exact -> Store.put store key Store.No_tiling
          | Corpus.Campaign.Exact { tiling; certificate } ->
            Store.put store key (Store.Found { tiling; certificate }));
      Store.close store;
      let c1 = Unix.times () in
      (secs_since t0, c1.Unix.tms_utime -. c0.Unix.tms_utime +. (c1.Unix.tms_stime -. c0.Unix.tms_stime))
    in
    let seedings = Array.init 3 (fun _ -> seed_store ()) in
    let build_s = Stats.median (Array.map fst seedings) in
    let bytes = Proc.du path in
    e2e r "build_s" build_s "s";
    e2e r "build_cpu_s" (Stats.median (Array.map snd seedings)) "s";
    e2e r "corpus_bytes" (float_of_int bytes) "bytes";
    let oracle_path = Filename.concat r.dir "oracle.log" in
    Proc.copy_file path oracle_path;
    let lay = search_store_layout r.spec r.o.seconds in
    let plan = plan_for r in
    let ostore = Store.open_ oracle_path in
    let oracle = finish_oracle r (Work.oracle ~store:ostore ~dialect:r.spec.Work.dialect plan.Work.requests) in
    Store.close ostore;
    let cache = 64 in
    let build = { Layers.build_s; pool_cpu_s = 0.; jobs = 1; corpus_dir = None; bytes } in
    let hwm =
      serve_and_trace r ~args:[ "--store"; path; "--cache"; string_of_int cache ] ~plan ~lay ~corpus:None
        ~store_snapshot:(path, Filename.concat r.dir "high.log") ~cache ~build oracle
    in
    e2e r "peak_rss_mb" (mb hwm) "MiB"
  | _ -> assert false

(* ---------- output ---------- *)

(* The end-to-end metrics BENCHMARK.json gates on.  The wall-clock
   figures (throughput, latencies, slo_rps, build_s, setup_wall_s) are
   printed in the table but not gated: on the reference host, a 2-vCPU
   VM whose co-tenants steal up to a quarter of its CPU time, they swing
   by 2x between runs, while CPU-time figures mostly hold within 10 %. *)
let e2e_names = [ "cpu_us_per_req"; "peak_rss_mb"; "build_cpu_s"; "corpus_bytes"; "setup_s" ]

let reported_names =
  [ "throughput_rps"; "p50_us.low"; "tail_us.low"; "p50_us.high"; "tail_us.high"; "slo_rps"; "build_s";
    "setup_wall_s" ]

let json_metrics ms =
  String.concat ", "
    (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u) ms)

let () =
  let o = parse_args () in
  let spec = match Work.find_spec o.workload with Some s -> s | None -> usage () in
  if o.digest then begin
    (* Stream digests need no daemon: the plan is built in-process. *)
    let r = { o; spec; dir = ""; attempted = 0; failed = 0; problems = []; e2e = []; layer = [] } in
    print_endline (Work.digest (plan_for r));
    exit 0
  end;
  if not (Sys.file_exists o.exe) then begin
    Printf.eprintf "perfbench: %s not found (build it first)\n" o.exe;
    exit 2
  end;
  Proc.install_handlers ();
  let dir = Proc.temp_dir ~root:".bench_build/perfbench-tmp" in
  let r = { o; spec; dir; attempted = 0; failed = 0; problems = []; e2e = []; layer = [] } in
  let outcome =
    try run_workload r; Ok ()
    with e -> Error (Printexc.to_string e ^ "\n" ^ Printexc.get_backtrace ())
  in
  Proc.cleanup ();
  (match outcome with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "perfbench: %s failed: %s\n%!" o.workload e;
    exit 1);
  let fail_frac = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  Printf.printf "workload %s seed %d: attempted=%d failed=%d fail_frac=%g\n" o.workload o.seed
    r.attempted r.failed fail_frac;
  let pick names = List.filter_map (fun n -> List.find_opt (fun (m, _, _) -> m = n) r.e2e) names in
  let metrics = if o.trace then List.rev r.layer else pick e2e_names in
  let row (n, v, u) = Printf.printf "  %-34s %14.4f %s\n" n v u in
  List.iter row metrics;
  if not o.trace then begin
    print_endline "  reported, not gated:";
    List.iter row (pick reported_names)
  end;
  let correct = r.failed = 0 && r.problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    r.attempted r.failed (json_metrics metrics);
  exit (if correct then 0 else 1)
