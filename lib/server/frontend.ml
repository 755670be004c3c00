module Epoll = Evloop.Epoll
module Loop = Evloop.Loop

let is_shutdown_resp = function Protocol.Shutting_down -> true | _ -> false

(* One batch's reply messages, in request order: a request the reader
   could not parse is answered [error] in its place, a parsed one by
   the engine's next response. *)
type slot = Bad_line of string | Parsed of int option

let replies d slots resps =
  let rec go slots resps =
    match (slots, resps) with
    | [], [] -> []
    | Bad_line msg :: tl, resps -> Dialect.encode_response d (Error_r msg) :: go tl resps
    | Parsed id :: tl, resp :: resps -> Dialect.encode_response d ?id resp :: go tl resps
    | Parsed _ :: _, [] | [], _ :: _ -> assert false
  in
  go slots resps

let handle_lines engine lines =
  let parsed = List.map Protocol.request_of_string lines in
  let reqs =
    List.filter_map (function Ok (_, req) -> Some req | Error _ -> None) parsed
  in
  let slots =
    List.map (function Ok (id, _) -> Parsed id | Error msg -> Bad_line msg) parsed
  in
  let resps = Engine.handle_batch engine reqs in
  (replies Dialect.Text slots resps, List.exists is_shutdown_resp resps)

let serve_stdio engine =
  let bound = Engine.queue_bound engine in
  let stop = ref false in
  let batch = ref [] in
  let flush_batch () =
    if !batch <> [] then begin
      let lines, shutdown = handle_lines engine (List.rev !batch) in
      batch := [];
      List.iter print_endline lines;
      flush stdout;
      if shutdown then stop := true
    end
  in
  (try
     while not !stop do
       match input_line stdin with
       | "" -> flush_batch ()
       | line ->
         batch := line :: !batch;
         if List.length !batch >= bound then flush_batch ()
     done
   with End_of_file -> ());
  flush_batch ()

(* ---------- engine bridge ---------- *)

(* The event loop must never block on engine time, so engine work runs
   on a dedicated domain fed through this queue.  One item is one
   connection's read-burst; the worker drains everything queued and runs
   it as a single [handle_batch], preserving the engine's cross-client
   coalescing and letting admission control see the true instantaneous
   load, exactly like the old one-batch-per-select-round server. *)
module Bridge = struct
  type item = {
    reqs : Protocol.request list;
    deliver : Protocol.response list -> unit;  (* runs on the engine thread *)
  }

  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    q : item Queue.t;
    mutable stopped : bool;
  }

  let create () =
    { lock = Mutex.create (); cond = Condition.create (); q = Queue.create ();
      stopped = false }

  let push t item =
    Mutex.lock t.lock;
    Queue.add item t.q;
    Condition.signal t.cond;
    Mutex.unlock t.lock

  (* All queued items, or [None] once stopped and drained. *)
  let take_all t =
    Mutex.lock t.lock;
    while Queue.is_empty t.q && not t.stopped do
      Condition.wait t.cond t.lock
    done;
    let items = List.of_seq (Queue.to_seq t.q) in
    Queue.clear t.q;
    let stopped = t.stopped in
    Mutex.unlock t.lock;
    if items = [] && stopped then None else Some items

  let stop t =
    Mutex.lock t.lock;
    t.stopped <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock
end

let rec split_at k l =
  if k = 0 then ([], l)
  else
    match l with
    | [] -> assert false
    | x :: tl ->
      let a, b = split_at (k - 1) tl in
      (x :: a, b)

let engine_worker engine bridge fast_hits =
  let rec run () =
    match Bridge.take_all bridge with
    | None -> ()
    | Some items ->
      let n = Atomic.exchange fast_hits 0 in
      if n > 0 then Engine.add_corpus_hits engine n;
      let all = List.concat_map (fun it -> it.Bridge.reqs) items in
      let resps = Engine.handle_batch engine all in
      let rec dispatch items resps =
        match items with
        | [] -> ()
        | it :: tl ->
          let mine, rest = split_at (List.length it.Bridge.reqs) resps in
          it.Bridge.deliver mine;
          dispatch tl rest
      in
      dispatch items resps;
      run ()
  in
  run ()

(* ---------- evloop daemon ---------- *)

(* Per-connection state machine: sniff -> read messages -> engine-pending
   -> write.  The first byte picks the dialect ({!Dialect.sniff});
   [pending] counts bridge items in flight so the binary fast routes
   only fire when they cannot reorder replies. *)
type cstate = {
  mutable dialect : Dialect.t option;
  rd : Dialect.reader;
  mutable pending : int;
}

(* A listening Unix-domain socket at [path], closed again if bind or
   listen fails; on success the event loop owns it. *)
let listen_unix path =
  let srv = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let listening = ref false in
  Fun.protect
    ~finally:(fun () -> if not !listening then Unix.close srv)
    (fun () ->
      Unix.bind srv (Unix.ADDR_UNIX path);
      Unix.listen srv 1024;
      listening := true);
  srv

let serve_unix ?(idle_timeout = 0.) engine ~path =
  if Sys.file_exists path then Sys.remove path;
  let srv = listen_unix path in
  let bridge = Bridge.create () in
  let fast_hits = Atomic.make 0 in
  let corpus = Engine.corpus engine in
  (* Deliveries are encoded on the engine thread (keeping the loop
     thread lean) and handed back through [Loop.inject]; the injection
     queue is FIFO, so replies leave in completion order and a
     [Shutting_down] reply is flushed before the shutdown it
     triggers. *)
  let submit loop c st d slots reqs =
    st.pending <- st.pending + 1;
    Bridge.push bridge
      { reqs;
        deliver =
          (fun resps ->
            let buf = Buffer.create 256 in
            List.iter (Dialect.add_message d buf) (replies d slots resps);
            let out = Buffer.contents buf in
            let shutdown = List.exists is_shutdown_resp resps in
            Loop.inject loop (fun () ->
                st.pending <- st.pending - 1;
                Loop.send loop c [ Epoll.Str (out, 0, String.length out) ];
                if shutdown then Loop.shutdown loop)) }
  in
  (* The zero-copy road: a binary [Tile_search] probing an exact corpus
     record is answered on the loop thread by splicing the tiling bytes
     straight from the mmap into the socket via iovecs - no engine hop,
     no decode, no copy of the payload.  The probe key is the raw cell
     string, and corpus keys are canonical cell strings, so a hit
     implies the request was already canonical and needs no transport;
     a miss (non-canonical or unknown) falls through to the engine,
     which canonicalizes.  Only taken when no engine reply is in flight
     for this connection, so replies never reorder.  The snapshot is
     immutable, so the corpus verdict is a pure function of the request
     payload bytes; [memo] caches it per payload and lets a repeated
     probe skip the tile decode and canonical-key build entirely. *)
  let memo :
      (string, [ `Exact of Wire.bigstring * int * int | `Non_exact | `Miss ])
      Hashtbl.t =
    Hashtbl.create 1024
  in
  let memo_cap = 65536 in
  let frame_payload frame =
    String.sub frame Wire.header_size
      (String.length frame - Wire.header_size - Wire.trailer_size)
  in
  let probe corpus key =
    match Corpus.Snapshot.find corpus key with
    | None -> `Miss
    | Some hit -> (
      match Corpus.Snapshot.verdict corpus hit with
      | `Non_exact -> `Non_exact
      | `Exact -> `Exact (Corpus.Snapshot.tiling_raw corpus hit))
  in
  let serve_probe loop c id p =
    match p with
    | `Miss -> false
    | `Non_exact ->
      Atomic.incr fast_hits;
      let s =
        Wire.encode_response ?id (Protocol.No_tiling (Some Protocol.Corpus))
      in
      Loop.send loop c [ Epoll.Str (s, 0, String.length s) ];
      true
    | `Exact (seg, pos, len) ->
      Atomic.incr fast_hits;
      let head =
        Wire.frame_prefix ?id ~opcode:Wire.op_tiling_r ~payload_len:(len + 1)
          ()
        ^ String.make 1 (Wire.src_byte (Some Protocol.Corpus))
      in
      let crc =
        Wire.crc_emit
          (Wire.crc_bigstring
             (Wire.crc_string Wire.crc_init head 0 (String.length head))
             seg pos len)
      in
      Loop.send loop c
        [ Epoll.Str (head, 0, String.length head);
          Epoll.Big (seg, pos, len);
          Epoll.Str (crc, 0, String.length crc) ];
      true
  in
  let fast_path loop c id req frame =
    match (corpus, (req : Protocol.request)) with
    | Some corpus, Tile_search tile ->
      let key = Core.Verdict.key_of_canonical tile in
      let p = probe corpus key in
      if Hashtbl.length memo < memo_cap then
        Hashtbl.replace memo (frame_payload frame) p;
      serve_probe loop c id p
    | _ -> false
  in
  (* Pre-decode route: a tile-search frame whose payload was probed
     before is answered from the frame bytes alone - CRC check, id
     peel, splice.  A CRC mismatch falls through to the decoder, which
     rejects the frame and kills the connection. *)
  let fast_frame loop c frame =
    corpus <> None
    && String.length frame > Wire.header_size + Wire.trailer_size
    && Wire.frame_opcode frame = Wire.op_tile_search
    &&
    match Hashtbl.find_opt memo (frame_payload frame) with
    | None | Some `Miss -> false
    | Some p ->
      Wire.frame_crc_ok frame
      && serve_probe loop c (Wire.frame_id frame) p
  in
  (* The one reader: every complete message buffered on [c] is either
     answered by a binary fast route or joins one engine batch.  A bad
     text line is answered [error] in its place; a partial line past
     [Dialect.max_line], a bad frame head or an undecodable frame closes
     this connection - and only this one - after the batch before it is
     submitted. *)
  let read_messages loop c st d =
    let slots = ref [] and reqs = ref [] in
    let close = ref false in
    let continue = ref true in
    while !continue do
      match Dialect.cut d st.rd with
      | Dialect.Need_more -> continue := false
      | Dialect.Bad _ ->
        close := true;
        continue := false
      | Dialect.Msg m -> (
        (* Fast routes only ahead of every engine-bound reply. *)
        let fast = d = Dialect.Binary && !slots = [] && st.pending = 0 in
        if not (fast && fast_frame loop c m) then
          match Dialect.decode_request d m with
          | Ok (id, req) ->
            if not (fast && fast_path loop c id req m) then begin
              slots := Parsed id :: !slots;
              reqs := req :: !reqs
            end
          | Error msg when d = Dialect.Text -> slots := Bad_line msg :: !slots
          | Error _ ->
            close := true;
            continue := false)
    done;
    if !slots <> [] then submit loop c st d (List.rev !slots) (List.rev !reqs);
    if !close then Loop.close_conn loop c
  in
  let on_data loop c chunk n =
    let st = Loop.state c in
    Dialect.feed st.rd chunk n;
    if st.dialect = None then st.dialect <- Dialect.sniff st.rd;
    Option.iter (read_messages loop c st) st.dialect
  in
  let handlers =
    { Loop.on_accept =
        (fun _fd -> { dialect = None; rd = Dialect.reader (); pending = 0 });
      on_data;
      on_close = (fun _ _ -> ()) }
  in
  let loop = Loop.create ~idle_timeout ~listen:srv ~handlers () in
  let worker = Domain.spawn (fun () -> engine_worker engine bridge fast_hits) in
  Loop.run loop;
  Bridge.stop bridge;
  Domain.join worker;
  if Sys.file_exists path then Sys.remove path

(* ---------- client ---------- *)

(* One burst on a connected client socket: write [msgs] in one go, then
   cut exactly one reply message per request off [rd]. *)
let send_burst d fd rd chunk msgs =
  let buf = Buffer.create 256 in
  List.iter (Dialect.add_message d buf) msgs;
  let out = Buffer.contents buf and n = Buffer.length buf in
  let rec put off = if off < n then put (off + Unix.write_substring fd out off (n - off)) in
  put 0;
  let rec next () =
    match Dialect.cut d rd with
    | Dialect.Msg m -> m
    | Dialect.Bad msg -> failwith ("Frontend.with_connection: unreadable reply stream: " ^ msg)
    | Dialect.Need_more -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> raise End_of_file
      | n ->
        Dialect.feed rd chunk n;
        next ())
  in
  List.map (fun _ -> next ()) msgs

(* The socket is handed to [send_burst] as an argument, never captured
   by a closure, so R7 follows it to the close. *)
let with_connection ?(binary = false) ~path f =
  (* A dead peer must surface as EPIPE on the write, not kill the
     process with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let d = if binary then Dialect.Binary else Dialect.Text in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      f (send_burst d fd (Dialect.reader ()) (Bytes.create 65536)))
