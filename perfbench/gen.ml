(* The load generator: one process, at most two domains, at most two
   connections, built on the public [Server.Wire] / [Server.Protocol]
   codecs and [Evloop.Epoll].

   Requests are pre-encoded once per distinct request (without an id:
   replies on one connection come back in request order, so the k-th
   reply on a connection answers the k-th request sent on it).  Every
   reply is checked against the oracle's expected bytes, ignoring only
   the [src] provenance marker (and, on the binary dialect, the CRC
   that covers it - which is recomputed and checked instead).

   Closed loop, in lock step: each connection sends a batch of
   [window] requests in one write, and the next batch once every reply
   to the last has landed.  The daemon then reads the same batch sizes
   whatever the relative speed of the two processes, which keeps its
   CPU per request independent of how the host schedules them.

   Open loop: request [k] is due at [t0 + k / rate] and is written when
   due, whether or not earlier replies have arrived; each reply's
   latency counts from the request's {e scheduled} time, so a stalled
   daemon charges the wait to every request queued behind it.  The
   generator's own lateness (actual minus scheduled send) is recorded
   separately as the generator lag. *)

module Epoll = Evloop.Epoll
module Ibuf = Evloop.Ibuf
module Wire = Server.Wire
module Hist = Stats.Hist

external tight_timer_slack : unit -> unit = "perfbench_tight_timer_slack"

type dialect = Text | Binary

type catalogue = {
  dialect : dialect;
  reqs : string array;  (** wire bytes of each distinct request *)
  expected : string array;
      (** binary: the expected reply frame; text: the expected reply
          line without its [src] field and newline *)
  has_src : bool array;  (** whether the expected reply carries [src] *)
}

type conn = { fd : Unix.file_descr; inb : Ibuf.t }

type t = { cat : catalogue; conns : conn array; mutable wrong_logged : int }

let close_conns conns = List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

(* On a failed connect every socket opened so far is closed again, so
   that polling for a daemon to come up leaks no descriptors. *)
let connect ~path ~connections cat =
  let rec go acc k =
    if k = 0 then Array.of_list (List.rev acc)
    else begin
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e ->
         close_conns ({ fd; inb = Ibuf.create () } :: acc);
         raise e);
      go ({ fd; inb = Ibuf.create () } :: acc) (k - 1)
    end
  in
  { cat; conns = go [] connections; wrong_logged = 0 }

let close t = close_conns (Array.to_list t.conns)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* ---------- reply framing and verification ---------- *)

(* Length of the complete reply at the head of [b] (newline or CRC
   included), 0 if incomplete, -1 if the bytes cannot be a reply. *)
let reply_len dialect (b : Ibuf.t) =
  match dialect with
  | Text -> (
    match Bytes.index_from_opt b.data b.start '\n' with
    | Some i when i < b.start + b.len -> i - b.start + 1
    | _ -> 0)
  | Binary -> (
    match Wire.frame_total b.data ~off:b.start ~avail:b.len with
    | Wire.Need_more -> 0
    | Wire.Total n -> if n <= b.len then n else 0
    | Wire.Bad_frame _ -> -1)

let bytes_equal_sub data off s soff len =
  let rec go i = i >= len || (Bytes.unsafe_get data (off + i) = String.unsafe_get s (soff + i) && go (i + 1)) in
  go 0

(* [data.[off .. off+len)] is the full reply (newline/CRC included). *)
let verify cat d data off len =
  let e = cat.expected.(d) in
  match cat.dialect with
  | Text ->
    let len = len - 1 in
    let len =
      if not cat.has_src.(d) then len
      else
        match Bytes.rindex_from_opt data (off + len - 1) '|' with
        | Some i when i >= off && Bytes.sub_string data (i + 1) (min 4 (off + len - i - 1)) = "src=" -> i - off
        | _ -> -1
    in
    len = String.length e && bytes_equal_sub data off e 0 len
  | Binary ->
    let h = Wire.header_size in
    len = String.length e
    && bytes_equal_sub data off e 0 h
    && (if cat.has_src.(d) then
          bytes_equal_sub data (off + h + 1) e (h + 1) (len - h - 1 - Wire.trailer_size)
        else bytes_equal_sub data (off + h) e h (len - h - Wire.trailer_size))
    &&
    let crc =
      Wire.crc_emit (Wire.crc_string Wire.crc_init (Bytes.unsafe_to_string data) off (len - Wire.trailer_size))
    in
    bytes_equal_sub data (off + len - Wire.trailer_size) crc 0 Wire.trailer_size

let log_wrong t d data off len =
  if t.wrong_logged < 3 then begin
    t.wrong_logged <- t.wrong_logged + 1;
    Printf.eprintf "perfbench: wrong reply to request %d:\n  got      %S\n  expected %S\n%!" d
      (Bytes.sub_string data off (min len 200))
      (String.sub t.cat.expected.(d) 0 (min 200 (String.length t.cat.expected.(d))))
  end

(* ---------- phases ---------- *)

type result = {
  attempted : int;
  completed : int;  (** verified-correct replies *)
  wrong : int;  (** replies that did not match the oracle *)
  dropped : int;  (** requests with no reply by the drain deadline *)
  lat : Hist.t array;
      (** ns, from the scheduled (open) or actual (closed) send; one
          histogram per consecutive slice of the phase *)
  lag : Hist.t array;  (** ns, actual minus scheduled send (open loop only), per slice *)
  rates : float array;
      (** closed loop: completions per second in each time slice it was
          still sending in (or, if it ran out of stream within the first
          slice, one rate over the time it was sending) *)
  done_in : int array;  (** closed loop: completions in each time slice *)
  sending_slices : int;  (** closed loop: the slices it was still sending throughout *)
  outstanding_at_end : int;  (** requests unanswered when the window closed *)
}

(* Slices per phase: as many as keep [min_per_slice] samples in each,
   at most [max_slices].  Reporting the median over slices keeps a
   single host hiccup (a preempted vCPU) from deciding a run's tail. *)
let max_slices = 10

let slices ~n ~min_per_slice = max 1 (min max_slices (n / max 1 min_per_slice))

let merged hs =
  let h = Hist.create () in
  Array.iter (fun x -> Hist.merge_into ~dst:h x) hs;
  h

(* Median over slices of each slice's percentile [p]. *)
let sliced_pct hs p =
  Stats.median (Array.of_list (List.filter_map (fun h ->
    if Hist.count h = 0 then None else Some (Hist.percentile h p)) (Array.to_list hs)))

let drain_timeout_ns = 5_000_000_000

let chunk_size = 65536

(* Read what [c] has and consume its complete replies with [f]; false
   once the peer has closed or sent garbage. *)
let pump t chunk c f =
  match Unix.read c.fd chunk 0 chunk_size with
  | 0 -> false
  | n ->
    Ibuf.append c.inb chunk n;
    let rec go () =
      let len = reply_len t.cat.dialect c.inb in
      if len < 0 then false
      else if len = 0 then true
      else begin
        f c.inb.data c.inb.start len;
        Ibuf.drop c.inb len;
        go ()
      end
    in
    go ()
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Send request [d] on the first connection and check its reply. *)
let one_shot t d =
  let c = t.conns.(0) in
  write_all c.fd t.cat.reqs.(d);
  let chunk = Bytes.create chunk_size in
  let result = ref None in
  while !result = None do
    if not (pump t chunk c (fun data off l -> result := Some (verify t.cat d data off l))) then
      result := Some false
  done;
  Option.get !result

(* [on_slice k] runs as time slice [k] begins, and [on_slice nslices]
   as the phase's window closes: a hook for sampling the daemon. *)
let closed_loop ?(cap = max_int) ?(nslices = 1) ?(on_slice = fun (_ : int) -> ()) t ~stream ~start ~window
    ~duration_s =
  let nconn = Array.length t.conns in
  let ep = Epoll.create () in
  Array.iter (fun c -> Epoll.add ep c.fd ~read:true ~write:false) t.conns;
  let by_fd = Hashtbl.create 4 in
  let inflight = Array.map (fun _ -> Queue.create ()) t.conns in
  Array.iteri (fun i c -> Hashtbl.replace by_fd c.fd i) t.conns;
  let len = Array.length stream in
  let next = ref 0 and lat = Array.init nslices (fun _ -> Hist.create ()) in
  let done_in = Array.make nslices 0 in
  let completed = ref 0 and wrong = ref 0 and outstanding = ref 0 in
  let t0 = Stats.now_ns () in
  let span = int_of_float (duration_s *. 1e9) in
  let stop_at = t0 + span in
  let slice_of now = min (nslices - 1) ((now - t0) * nslices / max 1 span) in
  (* When the stream runs out before [duration_s], only the time it was
     still sending counts towards the rate. *)
  let cap_at = ref max_int in
  (* Replies consumed in one read are answered with one write per
     connection. *)
  let bufs = Array.map (fun _ -> Buffer.create 4096) t.conns in
  let send ci =
    if !next < cap then begin
      let d = stream.((start + !next) mod len) in
      incr next;
      if !next = cap then cap_at := Stats.now_ns ();
      Queue.add (d, Stats.now_ns ()) inflight.(ci);
      incr outstanding;
      Buffer.add_string bufs.(ci) t.cat.reqs.(d)
    end
  in
  let flush ci =
    if Buffer.length bufs.(ci) > 0 then begin
      write_all t.conns.(ci).fd (Buffer.contents bufs.(ci));
      Buffer.clear bufs.(ci)
    end
  in
  let send_batch ci =
    for _ = 1 to window do
      send ci
    done;
    flush ci
  in
  for ci = 0 to nconn - 1 do
    send_batch ci
  done;
  let chunk = Bytes.create chunk_size in
  let alive = ref true in
  let boundary = ref 0 in
  on_slice 0;
  while !alive && !outstanding > 0 do
    let now = Stats.now_ns () in
    while !boundary < nslices && now >= t0 + ((!boundary + 1) * span / nslices) do
      incr boundary;
      on_slice !boundary
    done;
    if now > stop_at + drain_timeout_ns then alive := false
    else
      Array.iter
        (fun (ev : Epoll.event) ->
          let ci = Hashtbl.find by_fd ev.Epoll.fd in
          let ok =
            pump t chunk t.conns.(ci) (fun data off l ->
                let d, sent = Queue.pop inflight.(ci) in
                decr outstanding;
                let now = Stats.now_ns () in
                if verify t.cat d data off l then begin
                  incr completed;
                  let sl = slice_of now in
                  Hist.record lat.(sl) (now - sent);
                  if now < stop_at then done_in.(sl) <- done_in.(sl) + 1
                end
                else begin
                  incr wrong;
                  log_wrong t d data off l
                end)
          in
          if Queue.is_empty inflight.(ci) && Stats.now_ns () < stop_at then send_batch ci;
          if not ok then alive := false)
        (Epoll.wait ep ~timeout_ms:100)
  done;
  Epoll.close ep;
  while !boundary < nslices do
    incr boundary;
    on_slice !boundary
  done;
  let sending = min stop_at !cap_at - t0 in
  let full = sending * nslices / max 1 span in
  let rates =
    if full >= 1 then
      Array.map (fun c -> float_of_int c *. float_of_int nslices /. duration_s) (Array.sub done_in 0 full)
    else [| float_of_int (Array.fold_left ( + ) 0 done_in) /. (float_of_int (max 1 sending) /. 1e9) |]
  in
  { attempted = !next; completed = !completed; wrong = !wrong; dropped = !outstanding;
    lat; lag = [| Hist.create () |]; rates; done_in; sending_slices = full; outstanding_at_end = 0 }

(* Open loop, single-threaded: one loop sends whatever is due and
   reads whatever has arrived.  Waits of 2 ms or more block in epoll;
   shorter ones in select(2), whose microsecond timeout keeps the
   sender on schedule (a second domain would do the same, but OCaml's
   stop-the-world minor collections then need both client domains on a
   CPU at once, which on a 2-vCPU host stalls the generator for
   milliseconds).

   Writes never block: the sockets are non-blocking for the phase, and
   bytes a stopped or slow daemon does not take stay queued in the
   generator and go out as soon as the socket drains.

   [stall = (pause_ns, stop, resume)] is a test hook: [stop] runs as the
   middle request is sent and [resume] [pause_ns] later, while the loop
   keeps sending on schedule. *)
let open_loop ?stall ?(min_per_slice = 1) t ~stream ~start ~rate ~duration_s =
  let nconn = Array.length t.conns in
  let n = max 1 (int_of_float (rate *. duration_s)) in
  let nslices = slices ~n ~min_per_slice in
  let interval = 1e9 /. rate in
  let t0 = Stats.now_ns () + 2_000_000 in
  let due k = t0 + int_of_float (float_of_int k *. interval) in
  let window_end = due n in
  let deadline = window_end + drain_timeout_ns in
  let len = Array.length stream in
  tight_timer_slack ();
  let ep = Epoll.create () in
  let by_fd = Hashtbl.create 4 in
  Array.iteri
    (fun i c ->
      Epoll.add ep c.fd ~read:true ~write:false;
      Hashtbl.replace by_fd c.fd i)
    t.conns;
  let fds = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  let lat = Array.init nslices (fun _ -> Hist.create ()) in
  let lag = Array.init nslices (fun _ -> Hist.create ()) in
  let got = Array.make nconn 0 in
  let completed = ref 0 and wrong = ref 0 and received = ref 0 and in_window = ref 0 in
  let sent = ref 0 and alive = ref true in
  let chunk = Bytes.create chunk_size in
  let bufs = Array.init nconn (fun _ -> Buffer.create 4096) in
  let midpoint = n / 2 in
  let resume_at = ref max_int in
  let resume () =
    resume_at := max_int;
    Option.iter (fun (_, _, f) -> f ()) stall
  in
  let on_reply ci data off l =
    let k = ci + (got.(ci) * nconn) in
    got.(ci) <- got.(ci) + 1;
    incr received;
    let d = stream.((start + k) mod len) in
    let now = Stats.now_ns () in
    if verify t.cat d data off l then begin
      incr completed;
      Hist.record lat.(k * nslices / n) (now - due k);
      if now <= window_end then incr in_window
    end
    else begin
      incr wrong;
      log_wrong t d data off l
    end
  in
  let read ci = if not (pump t chunk t.conns.(ci) (on_reply ci)) then alive := false in
  let flush () =
    Array.iteri
      (fun ci b ->
        let len = Buffer.length b in
        if len > 0 then begin
          let s = Buffer.contents b in
          let n =
            try Unix.single_write_substring t.conns.(ci).fd s 0 len with
            | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
            | Unix.Unix_error _ -> alive := false; len
          in
          Buffer.clear b;
          if n < len then Buffer.add_substring b s n (len - n)
        end)
      bufs
  in
  let queued () = Array.exists (fun b -> Buffer.length b > 0) bufs in
  Array.iter (fun c -> Unix.set_nonblock c.fd) t.conns;
  while !alive && !received < n && Stats.now_ns () < deadline do
    let now = Stats.now_ns () in
    if now >= !resume_at then resume ();
    if !sent < n && due !sent <= now then begin
      (* Everything due by now goes out, one write per connection. *)
      while !sent < n && due !sent <= now do
        let k = !sent in
        Buffer.add_string bufs.(k mod nconn) t.cat.reqs.(stream.((start + k) mod len));
        Hist.record lag.(k * nslices / n) (now - due k);
        incr sent;
        if k = midpoint then
          Option.iter
            (fun (pause_ns, stop, _) ->
              stop ();
              resume_at := now + pause_ns)
            stall
      done;
      flush ()
    end
    else begin
      if queued () then flush ();
      let wait_ns = min (!resume_at - now) (if !sent < n then due !sent - now else 50_000_000) in
      let wait_ns = if queued () then min wait_ns 1_000_000 else wait_ns in
      if wait_ns >= 2_000_000 then
        Array.iter
          (fun (ev : Epoll.event) -> read (Hashtbl.find by_fd ev.Epoll.fd))
          (Epoll.wait ep ~timeout_ms:(wait_ns / 1_000_000))
      else
        match Unix.select fds [] [] (float_of_int wait_ns /. 1e9) with
        | readable, _, _ -> List.iter (fun fd -> read (Hashtbl.find by_fd fd)) readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  if !resume_at < max_int then resume ();
  Array.iter (fun c -> Unix.clear_nonblock c.fd) t.conns;
  Epoll.close ep;
  { attempted = n; completed = !completed; wrong = !wrong; dropped = n - !received;
    lat; lag; rates = [||]; done_in = [||]; sending_slices = 0; outstanding_at_end = n - !in_window }
