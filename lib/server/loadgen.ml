open Lattice
module Epoll = Evloop.Epoll
module Ibuf = Evloop.Ibuf

type op_mix = [ `Mixed | `Search_only ]

type config = {
  requests : int;
  clients : int;
  zipf : float;
  seed : int64;
  tiles : (string * Prototile.t) list;
  ops : op_mix;
  send_shutdown : bool;
}

let default_tiles =
  [ ("cheb1", Prototile.chebyshev_ball ~dim:2 1);
    ("tet-S", Prototile.tetromino `S);
    ("tet-Z", Prototile.tetromino `Z);
    ("rect2x3", Prototile.rect 2 3);
    ("rect3x2", Prototile.rect 3 2);
    ("tet-L", Prototile.tetromino `L);
    ("tet-J", Prototile.tetromino `J);
    ("tet-T", Prototile.tetromino `T);
    ("tet-I", Prototile.tetromino `I);
    ("tet-O", Prototile.tetromino `O);
    ("rect2x2", Prototile.rect 2 2);
    ("pent-P", Prototile.pentomino `P);
    ("pent-L", Prototile.pentomino `L);
    ("pent-I", Prototile.pentomino `I);
    ("pent-X", Prototile.pentomino `X);
    ("cheb2", Prototile.chebyshev_ball ~dim:2 2) ]

let default =
  { requests = 10_000; clients = 8; zipf = 1.1; seed = 1L; tiles = default_tiles;
    ops = `Mixed; send_shutdown = false }

type report = {
  requests : int;
  completed : int;
  ok : int;
  no_tiling : int;
  deadline : int;
  errors : int;
  overloaded_replies : int;
  rounds : int;
  by_op : (string * int) list;
  by_source : (string * int) list;
  hit_rate : float;
  server : Protocol.server_stats;
  checksum : string;
  latency : Netsim.Stats.snapshot;
  elapsed_s : float;
  throughput : float;
}

(* Zipf(s) over ranks 1..n via the inverse CDF. *)
let zipf_sampler ~s n =
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  fun u ->
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then bisect lo mid else bisect (mid + 1) hi
    in
    bisect 0 (n - 1)

type client = { rng : Prng.Xoshiro.t; mutable pending : (string * Protocol.request * int) option }
(* pending = (op name, request, id) awaiting a non-overloaded reply *)

(* In [`Mixed] mode the draw sequence (tile, op selector, coords) is the
   historical one, so text-protocol checksums are stable across the
   encode-at-send-time refactor. *)
let gen_request ~tiles ~sample ~ops rng =
  let tile = snd (List.nth tiles (sample (Prng.Xoshiro.float rng 1.0))) in
  match ops with
  | `Search_only -> ("tile-search", Protocol.Tile_search tile)
  | `Mixed ->
    let r = Prng.Xoshiro.float rng 1.0 in
    if r < 0.80 then begin
      let coord () = Prng.Xoshiro.int rng 41 - 20 in
      let pos = Zgeom.Vec.of_list (List.init (Prototile.dim tile) (fun _ -> coord ())) in
      ("slot", Protocol.Slot { tile; pos })
    end
    else if r < 0.95 then ("schedule", Protocol.Schedule tile)
    else ("tile-search", Protocol.Tile_search tile)

let count_in table key =
  Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))

let count_source table resp =
  match Protocol.source_of_response resp with
  | None -> ()
  | Some s -> count_in table (Protocol.source_to_string s)

(* The closed-loop driver shared by the text and binary transports.
   [send_round] takes one (id, request) batch and returns the decoded
   responses in order; the transport adapter owns encoding and feeds the
   checksum digest. *)
let drive ~name ~digest ~send_round (config : config) =
  if config.requests < 0 then invalid_arg (name ^ ": negative requests");
  if config.clients < 1 then invalid_arg (name ^ ": clients must be >= 1");
  if config.tiles = [] then invalid_arg (name ^ ": empty tile catalogue");
  let sample = zipf_sampler ~s:config.zipf (List.length config.tiles) in
  let clients =
    Array.init config.clients (fun i ->
        { rng = Prng.Xoshiro.create (Int64.add config.seed (Int64.of_int i));
          pending = None })
  in
  let stats = Netsim.Stats.create () in
  let issued = ref 0 in
  let completed = ref 0 in
  let ok = ref 0 in
  let no_tiling = ref 0 in
  let deadline = ref 0 in
  let errors = ref 0 in
  let overloaded = ref 0 in
  let rounds = ref 0 in
  let by_op = Hashtbl.create 4 in
  let by_source = Hashtbl.create 4 in
  let t_start = Unix.gettimeofday () in
  while !completed < config.requests do
    let round = ref [] in
    Array.iter
      (fun c ->
        (match c.pending with
        | Some _ -> ()
        | None ->
          if !issued < config.requests then begin
            let op, req = gen_request ~tiles:config.tiles ~sample ~ops:config.ops c.rng in
            c.pending <- Some (op, req, !issued);
            incr issued;
            Netsim.Stats.record_arrival stats
          end);
        match c.pending with
        | Some (_, req, id) -> round := (c, (Some id, req)) :: !round
        | None -> ())
      clients;
    let round = List.rev !round in
    assert (round <> []);
    let t0 = Unix.gettimeofday () in
    let replies = send_round (List.map snd round) in
    let lat_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    incr rounds;
    List.iter2
      (fun (c, _) resp ->
        match resp with
        | Protocol.Overloaded -> incr overloaded (* keep pending: retry next round *)
        | resp ->
          let op = match c.pending with Some (op, _, _) -> op | None -> assert false in
          c.pending <- None;
          incr completed;
          count_in by_op op;
          Netsim.Stats.record_delivery stats ~latency:lat_us;
          count_source by_source resp;
          (match resp with
          | Protocol.Slot_r _ | Protocol.Schedule_r _ | Protocol.Tiling_r _
          | Protocol.Tiling_raw_r _ -> incr ok
          | Protocol.No_tiling _ -> incr no_tiling
          | Protocol.Deadline_exceeded -> incr deadline
          | _ -> incr errors))
      round replies
  done;
  let elapsed_s = Unix.gettimeofday () -. t_start in
  (* Fetch final server counters (and optionally shut the server down);
     both replies join the digest - they are deterministic too. *)
  let server =
    match send_round [ (Some !issued, Protocol.Stats) ] with
    | [ Protocol.Stats_r s ] -> s
    | _ -> failwith "loadgen: stats request not answered with stats"
  in
  if config.send_shutdown then ignore (send_round [ (None, Protocol.Shutdown) ]);
  let lookups = server.cache_hits + server.cache_misses in
  {
    requests = config.requests;
    completed = !completed;
    ok = !ok;
    no_tiling = !no_tiling;
    deadline = !deadline;
    errors = !errors;
    overloaded_replies = !overloaded;
    rounds = !rounds;
    by_op =
      List.sort compare (Hashtbl.fold (fun op n acc -> (op, n) :: acc) by_op []);
    by_source =
      List.sort compare
        (Hashtbl.fold (fun s n acc -> (s, n) :: acc) by_source []);
    hit_rate =
      (if lookups = 0 then 1.0 else float_of_int server.cache_hits /. float_of_int lookups);
    server;
    checksum = Digest.to_hex (Digest.string (Buffer.contents digest));
    latency = Netsim.Stats.snapshot stats;
    elapsed_s;
    throughput =
      (if elapsed_s > 0.0 then float_of_int !completed /. elapsed_s else 0.0);
  }

let run_with ~send (config : config) =
  let digest = Buffer.create 4096 in
  let send_round reqs =
    let lines = List.map (fun (id, req) -> Protocol.request_to_string ?id req) reqs in
    List.map
      (fun reply ->
        Buffer.add_string digest reply;
        Buffer.add_char digest '\n';
        match Protocol.response_of_string reply with
        | Ok (_, resp) -> resp
        | Error msg -> Protocol.Error_r ("undecodable reply: " ^ msg))
      (send lines)
  in
  drive ~name:"Loadgen.run_with" ~digest ~send_round config

let run_binary ~send (config : config) =
  let digest = Buffer.create 4096 in
  let send_round reqs =
    (* The binary client assigns burst-local frame ids itself, so the
       driver's ids are not sent; position matches replies to requests. *)
    List.map
      (fun reply ->
        let id, resp =
          match reply with
          | Ok (id, resp) -> (id, resp)
          | Error msg -> (None, Protocol.Error_r ("undecodable reply: " ^ msg))
        in
        Buffer.add_string digest (Protocol.response_to_string ?id resp);
        Buffer.add_char digest '\n';
        resp)
      (send (List.map snd reqs))
  in
  drive ~name:"Loadgen.run_binary" ~digest ~send_round config

let run engine config =
  run_with ~send:(fun lines -> fst (Frontend.handle_lines engine lines)) config

(* ---------- open-loop mode ---------- *)

type open_config = {
  connections : int;
  rate : float;
  total : int;
  binary : bool;
  zipf : float;
  seed : int64;
  tiles : (string * Prototile.t) list;
  ops : op_mix;
  send_shutdown : bool;
}

let open_default =
  { connections = 64; rate = 0.0; total = 10_000; binary = true; zipf = 1.1; seed = 1L;
    tiles = default_tiles; ops = `Mixed; send_shutdown = false }

type open_report = {
  sent : int;
  completed : int;
  dropped : int;
  errors : int;
  overloaded_replies : int;
  by_source : (string * int) list;
  latency : Netsim.Stats.snapshot;
  elapsed_s : float;
  throughput : float;
}

type oconn = {
  ofd : Unix.file_descr;
  orng : Prng.Xoshiro.t;
  oin : Ibuf.t;
  mutable out_buf : bytes;
  mutable out_off : int;  (* next unwritten byte; = length means flushed *)
  mutable flight : float option;  (* latency start of the in-flight request *)
  mutable oclosed : bool;
  mutable owrite : bool;  (* write interest currently registered *)
}

let encode_one ~binary ~id req =
  if binary then Bytes.of_string (Wire.encode_request ~id req)
  else Bytes.of_string (Protocol.request_to_string ~id req ^ "\n")

(* How long a fully-issued run may sit with zero reply progress before
   the remaining in-flight requests are written off as dropped. *)
let stall_limit_s = 30.0

let run_open ~path (cfg : open_config) =
  (* A server-side close with our request bytes still unwritten must
     surface as EPIPE on the write (handled by [close_conn]), not kill
     the whole load generator with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if cfg.connections < 1 then invalid_arg "Loadgen.run_open: connections must be >= 1";
  if cfg.total < 0 then invalid_arg "Loadgen.run_open: negative total";
  if cfg.tiles = [] then invalid_arg "Loadgen.run_open: empty tile catalogue";
  let sample = zipf_sampler ~s:cfg.zipf (List.length cfg.tiles) in
  let ep = Epoll.create () in
  let conns = Hashtbl.create cfg.connections in
  let alive = ref 0 in
  for i = 0 to cfg.connections - 1 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception e ->
      Unix.close fd;
      Hashtbl.iter (fun _ c -> Unix.close c.ofd) conns;
      Epoll.close ep;
      raise e);
    Unix.set_nonblock fd;
    let c =
      { ofd = fd;
        orng = Prng.Xoshiro.create (Int64.add cfg.seed (Int64.of_int i));
        oin = Ibuf.create ();
        out_buf = Bytes.empty;
        out_off = 0;
        flight = None;
        oclosed = false;
        owrite = false }
    in
    Hashtbl.replace conns fd c;
    Epoll.add ep fd ~read:true ~write:false;
    incr alive
  done;
  let stats = Netsim.Stats.create () in
  let sent = ref 0 in
  let completed = ref 0 in
  let dropped = ref 0 in
  let errors = ref 0 in
  let overloaded = ref 0 in
  let by_source = Hashtbl.create 4 in
  let idle = Queue.create () in
  Hashtbl.iter (fun _ c -> Queue.push c idle) conns;
  let close_conn c =
    if not c.oclosed then begin
      c.oclosed <- true;
      (match c.flight with
      | Some _ ->
        c.flight <- None;
        incr dropped
      | None -> ());
      Epoll.remove ep c.ofd;
      Hashtbl.remove conns c.ofd;
      (try Unix.close c.ofd with Unix.Unix_error _ -> ());
      decr alive
    end
  in
  let set_write c w =
    if w <> c.owrite && not c.oclosed then begin
      c.owrite <- w;
      Epoll.modify ep c.ofd ~read:true ~write:w
    end
  in
  let flush c =
    let len = Bytes.length c.out_buf in
    let continue = ref true in
    while !continue && not c.oclosed && c.out_off < len do
      match Unix.write c.ofd c.out_buf c.out_off (len - c.out_off) with
      | n -> c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error _ ->
        close_conn c;
        continue := false
    done;
    if not c.oclosed then set_write c (c.out_off < Bytes.length c.out_buf)
  in
  let issue c ~at =
    let _, req = gen_request ~tiles:cfg.tiles ~sample ~ops:cfg.ops c.orng in
    c.out_buf <- encode_one ~binary:cfg.binary ~id:!sent req;
    c.out_off <- 0;
    c.flight <- Some at;
    incr sent;
    Netsim.Stats.record_arrival stats;
    flush c
  in
  let finish c resp =
    match c.flight with
    | None -> () (* unsolicited bytes; ignore *)
    | Some t0 ->
      c.flight <- None;
      incr completed;
      Netsim.Stats.record_delivery stats
        ~latency:(int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
      count_source by_source resp;
      (match resp with
      | Protocol.Overloaded -> incr overloaded
      | Protocol.Error_r _ -> incr errors
      | _ -> ());
      Queue.push c idle
  in
  let drop_reply c =
    match c.flight with
    | None -> ()
    | Some _ ->
      c.flight <- None;
      incr dropped;
      Queue.push c idle
  in
  let parse_binary c =
    let progress = ref true in
    while !progress && not c.oclosed do
      progress := false;
      match Wire.frame_total c.oin.Ibuf.data ~off:c.oin.Ibuf.start ~avail:c.oin.Ibuf.len with
      | Wire.Need_more -> ()
      | Wire.Bad_frame _ ->
        (* Framing is lost; nothing later on this connection can be
           trusted to line up with a request. *)
        drop_reply c;
        close_conn c
      | Wire.Total n ->
        if c.oin.Ibuf.len >= n then begin
          let frame = Bytes.sub_string c.oin.Ibuf.data c.oin.Ibuf.start n in
          Ibuf.drop c.oin n;
          (match Wire.decode_response frame with
          | Ok (_, resp) -> finish c resp
          | Error _ -> drop_reply c);
          progress := true
        end
    done
  in
  let find_nl b =
    let data = b.Ibuf.data and start = b.Ibuf.start and len = b.Ibuf.len in
    let rec go i =
      if i >= start + len then None
      else if Bytes.get data i = '\n' then Some (i - start)
      else go (i + 1)
    in
    go start
  in
  let parse_text c =
    let progress = ref true in
    while !progress && not c.oclosed do
      progress := false;
      match find_nl c.oin with
      | None -> ()
      | Some rel ->
        let line = Bytes.sub_string c.oin.Ibuf.data c.oin.Ibuf.start rel in
        Ibuf.drop c.oin (rel + 1);
        (match Protocol.response_of_string line with
        | Ok (_, resp) -> finish c resp
        | Error _ -> drop_reply c);
        progress := true
    done
  in
  let scratch = Bytes.create 65536 in
  let handle_read c =
    let continue = ref true in
    while !continue && not c.oclosed do
      match Unix.read c.ofd scratch 0 (Bytes.length scratch) with
      | 0 ->
        close_conn c;
        continue := false
      | n ->
        Ibuf.append c.oin scratch n;
        if cfg.binary then parse_binary c else parse_text c;
        if n < Bytes.length scratch then continue := false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error _ ->
        close_conn c;
        continue := false
    done
  in
  let interval = if cfg.rate > 0.0 then 1.0 /. cfg.rate else 0.0 in
  let t_start = Unix.gettimeofday () in
  let next_send = ref t_start in
  let rec pop_idle () =
    match Queue.take_opt idle with
    | None -> None
    | Some c ->
      if c.oclosed || c.flight <> None || c.out_off < Bytes.length c.out_buf then pop_idle ()
      else Some c
  in
  let rec pump () =
    if
      !sent < cfg.total && !alive > 0
      && (interval = 0.0 || Unix.gettimeofday () >= !next_send)
    then
      match pop_idle () with
      | None -> () (* every connection busy: the backlog waits for replies *)
      | Some c ->
        (* Paced, the clock starts at the slot consumed, so a late
           release still counts its wait (no coordinated omission). *)
        if interval > 0.0 then begin
          issue c ~at:!next_send;
          next_send := !next_send +. interval
        end
        else issue c ~at:(Unix.gettimeofday ());
        pump ()
  in
  let last_progress = ref t_start in
  let last_done = ref 0 in
  while !alive > 0 && (!sent < cfg.total || !sent - !completed - !dropped > 0) do
    pump ();
    let timeout_ms =
      if !sent >= cfg.total || interval = 0.0 then 100
      else
        let dt = !next_send -. Unix.gettimeofday () in
        if dt > 0.0 then int_of_float (Float.min 100.0 (ceil (dt *. 1000.0)))
        else 100 (* overdue but every connection is busy: wait for a reply *)
    in
    let events = Epoll.wait ep ~timeout_ms in
    Array.iter
      (fun (ev : Epoll.event) ->
        match Hashtbl.find_opt conns ev.Epoll.fd with
        | None -> ()
        | Some c ->
          if ev.Epoll.error then close_conn c
          else begin
            if ev.Epoll.writable && not c.oclosed then flush c;
            if ev.Epoll.readable && not c.oclosed then handle_read c
          end)
      events;
    let done_now = !completed + !dropped in
    if done_now <> !last_done then begin
      last_done := done_now;
      last_progress := Unix.gettimeofday ()
    end
    else if
      !sent - done_now > 0 && Unix.gettimeofday () -. !last_progress > stall_limit_s
    then
      (* The server went silent with requests outstanding: write them
         off so the run terminates with the loss on the record. *)
      Hashtbl.fold (fun _ c acc -> c :: acc) conns [] |> List.iter close_conn
  done;
  let elapsed_s = Unix.gettimeofday () -. t_start in
  Hashtbl.iter (fun _ c -> try Unix.close c.ofd with Unix.Unix_error _ -> ()) conns;
  Epoll.close ep;
  if cfg.send_shutdown then
    Frontend.with_connection ~path (fun send ->
        ignore (send [ Protocol.request_to_string Protocol.Shutdown ]));
  ({
     sent = !sent;
     completed = !completed;
     dropped = !dropped;
     errors = !errors;
     overloaded_replies = !overloaded;
     by_source =
       List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) by_source []);
     latency = Netsim.Stats.snapshot stats;
     elapsed_s;
     throughput = (if elapsed_s > 0.0 then float_of_int !completed /. elapsed_s else 0.0);
   }
    : open_report)

let pp_report fmt (r : report) =
  Format.fprintf fmt
    "@[<v>requests=%d completed=%d ok=%d no_tiling=%d deadline=%d errors=%d@,\
     overloaded_replies=%d rounds=%d@,by_op: %s@,\
     cache: hit_rate=%.4f entries=%d evictions=%d@,server: %a@,checksum=%s@]"
    r.requests r.completed r.ok r.no_tiling r.deadline r.errors r.overloaded_replies
    r.rounds
    (String.concat " " (List.map (fun (op, n) -> Printf.sprintf "%s=%d" op n) r.by_op))
    r.hit_rate r.server.cache_entries r.server.cache_evictions Protocol.pp_server_stats
    r.server r.checksum

let pp_timing fmt (r : report) =
  Format.fprintf fmt
    "elapsed=%.3fs throughput=%.0f req/s round-latency(us): p50=%.0f p95=%.0f p99=%.0f max=%d by_source: %s"
    r.elapsed_s r.throughput r.latency.Netsim.Stats.p50_latency
    r.latency.Netsim.Stats.p95_latency r.latency.Netsim.Stats.p99_latency
    r.latency.Netsim.Stats.max_latency
    (if r.by_source = [] then "-"
     else
       String.concat " "
         (List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) r.by_source))

let pp_open_report fmt (r : open_report) =
  Format.fprintf fmt
    "@[<v>sent=%d completed=%d dropped=%d errors=%d overloaded=%d@,\
     elapsed=%.3fs throughput=%.0f req/s latency(us): p50=%.0f p95=%.0f p99=%.0f max=%d@,\
     by_source: %s@]"
    r.sent r.completed r.dropped r.errors r.overloaded_replies r.elapsed_s r.throughput
    r.latency.Netsim.Stats.p50_latency r.latency.Netsim.Stats.p95_latency
    r.latency.Netsim.Stats.p99_latency r.latency.Netsim.Stats.max_latency
    (if r.by_source = [] then "-"
     else
       String.concat " "
         (List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) r.by_source))
