(* The traced run's in-process layer replay.

   The request stream the daemon served in the high-rate phase is
   pushed through the layers' public functions, in the order the daemon
   calls them, with a span around each call: name, start, end, parent
   span and request id.  Spans are kept in memory and reduced at the
   end to self time per layer (a span's duration minus the time its
   child spans cover).  The replay runs twice, without and with spans;
   the difference is the tracing overhead.  Nothing here feeds an
   end-to-end number. *)

open Lattice
module Protocol = Server.Protocol
module Wire = Server.Wire

(* ---------- spans ---------- *)

type span = { name : string; start : int; stop : int; parent : int; req : int }

let spans : (int, span) Hashtbl.t = Hashtbl.create 4096
let next_id = ref 0
let current = ref (-1)
let enabled = ref false

(* [name_of] names the span from its result (search outcomes). *)
let span_of name_of ~req f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start = Stats.now_ns () in
    let r = Fun.protect ~finally:(fun () -> current := parent) f in
    Hashtbl.replace spans id { name = name_of r; start; stop = Stats.now_ns (); parent; req };
    r
  end

let span name ~req f = span_of (fun _ -> name) ~req f

(* Self ns and call count per span name. *)
let reduce () =
  let self = Hashtbl.create 32 and calls = Hashtbl.create 32 in
  let add tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  Hashtbl.iter
    (fun _ s ->
      let d = s.stop - s.start in
      add self s.name d;
      add calls s.name 1;
      match Hashtbl.find_opt spans s.parent with Some p -> add self p.name (-d) | None -> ())
    spans;
  (self, calls)

(* ---------- replay ---------- *)

type input = {
  dialect : Gen.dialect;
  requests : Protocol.request array;
  responses : Protocol.response array;  (** the oracle's replies *)
  stream : int array;  (** catalogue indices, in the order served *)
  corpus : Corpus.Snapshot.t option;
  store_seed : string option;
      (** a copy of the daemon's store as the replayed phase began *)
  cache_capacity : int;
  scratch : string;  (** directory for replay-only files *)
}

(* Daemon-order replay of one request.  [fast] tracks payloads the
   front end's memo has seen (hot path: CRC, peel, splice). *)
let replay_one inp ~cache ~store ~fast ~fast_routed k d =
  let req = inp.requests.(d) and resp = inp.responses.(d) in
  let wire_req = Gen.(match inp.dialect with Binary -> Wire.encode_request req | Text -> Protocol.request_to_string req) in
  span "request" ~req:k @@ fun () ->
  let decoded () =
    match inp.dialect with
    | Gen.Binary -> (
      ignore (span "wire.crc" ~req:k (fun () -> Wire.frame_crc_ok wire_req));
      match span "wire.decode" ~req:k (fun () -> Wire.decode_request wire_req) with
      | Ok (_, r) -> r
      | Error e -> failwith e)
    | Gen.Text -> (
      match span "protocol.parse" ~req:k (fun () -> Protocol.request_of_string wire_req) with
      | Ok (_, r) -> r
      | Error e -> failwith e)
  in
  let is_fast =
    inp.dialect = Gen.Binary
    && (match (req, inp.corpus) with
       | Protocol.Tile_search tile, Some c ->
         Corpus.Snapshot.find c (Core.Codec.vecs_to_string (Prototile.cells tile)) <> None
       | _ -> false)
  in
  if is_fast then begin
    incr fast_routed;
    let c = Option.get inp.corpus in
    let tile = match req with Protocol.Tile_search t -> t | _ -> assert false in
    (* The front end's memo: a payload seen before skips the decode
       and the corpus probe. *)
    if Hashtbl.mem fast wire_req then
      ignore (span "wire.crc" ~req:k (fun () -> Wire.frame_crc_ok wire_req))
    else begin
      ignore (decoded ());
      Hashtbl.replace fast wire_req None
    end;
    let hit =
      match Hashtbl.find_opt fast wire_req with
      | Some (Some hit) -> hit
      | _ ->
        let hit =
          span "corpus.find" ~req:k (fun () ->
              Option.get (Corpus.Snapshot.find c (Core.Codec.vecs_to_string (Prototile.cells tile))))
        in
        Hashtbl.replace fast wire_req (Some hit);
        hit
    in
    span "wire.encode" ~req:k (fun () ->
        match Corpus.Snapshot.verdict c hit with
        | `Non_exact -> ignore (Wire.encode_response (Protocol.No_tiling (Some Protocol.Corpus)))
        | `Exact ->
          let seg, pos, len = Corpus.Snapshot.tiling_raw c hit in
          let head = Wire.frame_prefix ~opcode:Wire.op_tiling_r ~payload_len:(len + 1) () ^ "\002" in
          ignore
            (Wire.crc_emit
               (Wire.crc_bigstring (Wire.crc_string Wire.crc_init head 0 (String.length head)) seg pos len)))
  end
  else begin
    let req = decoded () in
    let tile = Option.get (Work.request_tile req) in
    let entry =
      span "engine" ~req:k @@ fun () ->
      let canon, _ = span "symmetry.canonicalize" ~req:k (fun () -> Symmetry.canonicalize tile) in
      let key = Core.Codec.vecs_to_string (Prototile.cells canon) in
      let from_corpus =
        Option.bind inp.corpus (fun c ->
            match span "corpus.find" ~req:k (fun () -> Corpus.Snapshot.find c key) with
            | None -> None
            | Some hit -> (
              match Corpus.Snapshot.verdict c hit with
              | `Non_exact -> Some None
              | `Exact -> (
                match req with
                | Protocol.Tile_search _ when Prototile.equal tile canon -> Some None
                | _ -> (
                  match span "corpus.entry" ~req:k (fun () -> Corpus.Snapshot.entry c hit) with
                  | Ok (Some (tl, _)) -> Some (Some tl)
                  | _ -> Some None))))
      in
      match from_corpus with
      | Some e -> e
      | None -> (
        match span "cache.find" ~req:k (fun () -> Server.Cache.find cache key) with
        | Some e -> e
        | None ->
          let e =
            match Option.bind store (fun s -> span "store.find" ~req:k (fun () -> Store.find s key)) with
            | Some (Store.Found { tiling; _ }) -> Some tiling
            | Some Store.No_tiling -> None
            | None ->
              let found =
                span_of
                  (function Some _ -> "search.exact" | None -> "search.non_exact")
                  ~req:k
                  (fun () -> Tiling.Search.find_tiling canon)
              in
              Option.iter
                (fun s ->
                  let entry =
                    match found with
                    | Some tiling ->
                      let certificate = span "certificate.build" ~req:k (fun () -> Core.Certificate.build tiling) in
                      Store.Found { tiling; certificate }
                    | None -> Store.No_tiling
                  in
                  match entry with
                  | Store.Found { tiling; _ } when not (Prototile.equal (Tiling.Single.prototile tiling) canon) -> ()
                  | _ -> span "store.put" ~req:k (fun () -> Store.put s key entry))
                store;
              found
          in
          span "cache.add" ~req:k (fun () -> Server.Cache.add cache key e);
          e)
    in
    (* Derivation for the reply. *)
    Option.iter
      (fun tl ->
        match req with
        | Protocol.Slot { pos; _ } ->
          let s = span "schedule.of_tiling" ~req:k (fun () -> Core.Schedule.of_tiling tl) in
          ignore (Core.Schedule.slot_at s pos)
        | Protocol.Schedule _ -> ignore (span "schedule.of_tiling" ~req:k (fun () -> Core.Schedule.of_tiling tl))
        | _ -> ignore (span "certificate.build" ~req:k (fun () -> Core.Certificate.build tl)))
      entry;
    match inp.dialect with
    | Gen.Binary -> ignore (span "wire.encode" ~req:k (fun () -> Wire.encode_response resp))
    | Gen.Text -> ignore (span "protocol.render" ~req:k (fun () -> Protocol.response_to_string resp))
  end

let replay inp =
  let store =
    Option.map
      (fun seed ->
        let path = Filename.concat inp.scratch (if !enabled then "replay-traced.log" else "replay-plain.log") in
        Proc.copy_file seed path;
        Store.open_ path)
      inp.store_seed
  in
  let cache = Server.Cache.create ~capacity:inp.cache_capacity in
  let fast = Hashtbl.create 1024 and fast_routed = ref 0 in
  let t0 = Stats.now_ns () in
  Array.iteri (fun k d -> replay_one inp ~cache ~store ~fast ~fast_routed k d) inp.stream;
  let wall = Stats.now_ns () - t0 in
  Option.iter Store.close store;
  (wall, !fast_routed)

let time_ns f =
  let t0 = Stats.now_ns () in
  let r = f () in
  (Stats.now_ns () - t0, r)

let median_ms k f = Stats.median (Array.init k (fun _ -> float_of_int (fst (time_ns f)) /. 1e6))

(* Offline-path facts the replay cannot see from one request stream. *)
type build = {
  build_s : float;  (** corpus build or store seeding wall time *)
  pool_cpu_s : float;  (** CPU of the build's pool domains (the threads besides the main one) *)
  jobs : int;
  corpus_dir : string option;
  bytes : int;  (** corpus or seeded-store bytes on disk *)
}

(* Returns (name, value, unit) per-layer metrics.  [daemon_cpu_us] is
   the daemon's CPU per request in the same phase. *)
let run inp ~build ~daemon_cpu_us =
  let n = float_of_int (max 1 (Array.length inp.stream)) in
  enabled := false;
  let plain, fast_routed = replay inp in
  Hashtbl.reset spans;
  enabled := true;
  let traced, _ = replay inp in
  enabled := false;
  let self, calls = reduce () in
  let get tbl k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let mean_ns k = if get calls k = 0. then 0. else get self k /. get calls k in
  let attributed_us = Hashtbl.fold (fun _ v acc -> acc +. float_of_int v) self 0. /. n /. 1000. in
  (* Whole-engine cost of the same stream, batched as the daemon would. *)
  let batch_us =
    let store =
      Option.map
        (fun seed ->
          let path = Filename.concat inp.scratch "batch.log" in
          Proc.copy_file seed path;
          Store.open_ path)
        inp.store_seed
    in
    let pool = Parallel.create ~jobs:1 in
    let engine = Server.create ~cache_capacity:inp.cache_capacity ~pool ?store ?corpus:inp.corpus () in
    let reqs = Array.map (fun d -> inp.requests.(d)) inp.stream in
    let ns, () =
      time_ns (fun () ->
          let i = ref 0 in
          while !i < Array.length reqs do
            let k = min 16 (Array.length reqs - !i) in
            ignore (Server.handle_batch engine (Array.to_list (Array.sub reqs !i k)));
            i := !i + k
          done)
    in
    Parallel.shutdown pool;
    Option.iter Store.close store;
    float_of_int ns /. n /. 1000.
  in
  let crc_ns_per_kb =
    if inp.dialect <> Gen.Binary then 0.
    else
      let frames = Array.map (fun d -> Wire.encode_request inp.requests.(d)) inp.stream in
      let bytes = Array.fold_left (fun acc f -> acc + String.length f) 0 frames in
      let ns, () =
        time_ns (fun () ->
            Array.iter (fun f -> ignore (Wire.crc_string Wire.crc_init f 0 (String.length f))) frames)
      in
      float_of_int ns /. (float_of_int bytes /. 1024.)
  in
  (* Certificates of the tilings the stream's replies carry. *)
  let tilings =
    Array.to_list inp.stream |> List.sort_uniq compare
    |> List.filter_map (fun d ->
           match inp.responses.(d) with
           | Protocol.Tiling_r { tiling; _ } -> Some tiling
           | Protocol.Tiling_raw_r { tiling_fields; _ } ->
             Result.to_option (Protocol.tiling_of_fragment tiling_fields)
           | _ -> None)
    |> List.filteri (fun i _ -> i < 200)
  in
  let certs = List.map Core.Certificate.build tilings in
  let check_us =
    if certs = [] then 0.
    else
      let ns, () = time_ns (fun () -> List.iter (fun c -> ignore (Core.Certificate.check c)) certs) in
      float_of_int ns /. float_of_int (List.length certs) /. 1000.
  in
  (* Campaign layers on the stream's polyominoes and on every class of
     area <= 9. *)
  let polys =
    Array.to_list inp.requests
    |> List.filter_map Work.request_tile
    |> List.filter (fun t -> Prototile.dim t = 2 && Polyomino.is_polyomino t)
    |> List.filteri (fun i _ -> i < 1000)
  in
  let decide_ns, verdicts = time_ns (fun () -> List.map Corpus.Campaign.decide polys) in
  let per_poly ns = if polys = [] then 0. else float_of_int ns /. float_of_int (List.length polys) in
  let encode_ns, () =
    time_ns (fun () ->
        List.iter2
          (fun t v ->
            let key = Core.Codec.vecs_to_string (Prototile.cells (Symmetry.canonical t)) in
            ignore
              (Corpus.Layout.encode_record ~band:(Prototile.size t) ~tag:Corpus.Layout.tag_exact ~key
                 ~payload:(Corpus.Campaign.payload_of_verdict v)))
          polys verdicts)
  in
  let classes = ref [] in
  let enum_ns, () =
    time_ns (fun () -> Polyomino.enumerate_free_iter ~max_area:9 (fun ~area:_ t -> classes := t :: !classes))
  in
  let nclasses = float_of_int (List.length !classes) in
  let simple = List.filter Polyomino.is_polyomino !classes in
  let bn_ns, () =
    time_ns (fun () ->
        List.iter (fun t -> ignore (Boundary_word.find_factorization (Polyomino.boundary_word t))) simple)
  in
  let enum_us = float_of_int enum_ns /. nclasses /. 1000. in
  let corpus_metrics =
    match (inp.corpus, build.corpus_dir) with
    | Some c, Some dir ->
      let records = float_of_int (Corpus.Snapshot.length c) in
      let per_class_us = enum_us +. (per_poly decide_ns /. 1000. /. float_of_int build.jobs) +. (per_poly encode_ns /. 1000.) in
      [ ("corpus.open_ms", median_ms 5 (fun () -> ignore (Corpus.Snapshot.open_ dir)), "ms");
        ("campaign.persist_s", Float.max 0. (build.build_s -. (records *. per_class_us /. 1e6)), "s");
        ("layout.bytes_per_record", float_of_int build.bytes /. records, "bytes");
        ("parallel.busy_share", build.pool_cpu_s /. (float_of_int (max 1 (build.jobs - 1)) *. build.build_s), "ratio") ]
    | _ -> [ ("corpus.open_ms", 0., "ms"); ("campaign.persist_s", 0., "s");
             ("layout.bytes_per_record", 0., "bytes"); ("parallel.busy_share", 0., "ratio") ]
  in
  let store_open_ms =
    match inp.store_seed with
    | None -> 0.
    | Some seed ->
      let path = Filename.concat inp.scratch "open.log" in
      Proc.copy_file seed path;
      median_ms 3 (fun () -> Store.close (Store.open_ path))
  in
  let puts = get calls "store.put" in
  let put_bytes =
    match inp.store_seed with
    | None -> 0.
    | Some seed ->
      let grown = Proc.du (Filename.concat inp.scratch "replay-traced.log") - Proc.du seed in
      if puts = 0. then 0. else float_of_int grown /. puts
  in
  [ ("wire.decode_ns", mean_ns "wire.decode", "ns");
    ("wire.encode_ns", mean_ns "wire.encode", "ns");
    ("wire.crc_ns_per_kb", crc_ns_per_kb, "ns");
    ("frontend.fast_route_share", float_of_int fast_routed /. n, "ratio");
    ("protocol.parse_ns", mean_ns "protocol.parse", "ns");
    ("protocol.render_ns", mean_ns "protocol.render", "ns");
    ("engine.batch_us_per_req", batch_us, "us");
    ("symmetry.canonicalize_ns", mean_ns "symmetry.canonicalize", "ns");
    ("corpus.find_ns", mean_ns "corpus.find", "ns");
    ("corpus.entry_us", mean_ns "corpus.entry" /. 1000., "us");
    ("campaign.decide_us_per_class", per_poly decide_ns /. 1000., "us") ]
  @ corpus_metrics
  @ [ ("store.open_ms", store_open_ms, "ms");
      ("store.find_us", mean_ns "store.find" /. 1000., "us");
      ("store.put_us", mean_ns "store.put" /. 1000., "us");
      ("store.bytes_per_put", put_bytes, "bytes");
      ("search.find_tiling_ms.exact", mean_ns "search.exact" /. 1e6, "ms");
      ("search.find_tiling_ms.non_exact", mean_ns "search.non_exact" /. 1e6, "ms");
      ("certificate.build_us", mean_ns "certificate.build" /. 1000., "us");
      ("certificate.check_us", check_us, "us");
      ("schedule.of_tiling_us", mean_ns "schedule.of_tiling" /. 1000., "us");
      ("polyomino.enumerate_us_per_class", enum_us, "us");
      ("boundary_word.bn_us_per_class", float_of_int bn_ns /. float_of_int (List.length simple) /. 1000., "us");
      ("trace.unattributed_share", 1. -. (attributed_us /. Float.max 1e-9 daemon_cpu_us), "ratio");
      ("trace.overhead_share", float_of_int (traced - plain) /. float_of_int (max 1 plain), "ratio") ]
