type 'a conn = {
  cfd : Unix.file_descr;
  mutable cstate : 'a;
  outq : Epoll.iovec Queue.t;
  mutable head_off : int;  (* bytes of the queue head already written *)
  mutable out_bytes : int;
  mutable reg_read : bool;  (* interest mask as registered with epoll *)
  mutable reg_write : bool;
  mutable drain_close : bool;
  mutable closed : bool;
  mutable dirty : bool;  (* queued output awaiting the end-of-round flush *)
  mutable last_activity : float;
}

type 'a t = {
  ep : Epoll.t;
  listen : Unix.file_descr;
  conns : (Unix.file_descr, 'a conn) Hashtbl.t;
  handlers : 'a handlers;
  read_buf : bytes;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  lock : Mutex.t;
  injected : (unit -> unit) Queue.t;
  dirties : 'a conn Queue.t;
  idle_timeout : float;
  mutable accepting : bool;
  mutable stopping : bool;
  mutable deadline : float;
  mutable last_sweep : float;
  mutable accept_paused_until : float;  (* 0. = listener armed *)
  mutable finished : bool;  (* guarded by [lock]; pipes closed *)
}

and 'a handlers = {
  on_accept : Unix.file_descr -> 'a;
  on_data : 'a t -> 'a conn -> bytes -> int -> unit;
  on_close : 'a t -> 'a conn -> unit;
}

let now () = Unix.gettimeofday ()

let state c = c.cstate
let set_state c s = c.cstate <- s
let fd c = c.cfd
let pending_out c = c.out_bytes
let active_conns t = Hashtbl.length t.conns

(* The conns table is only ever walked through this: fold to a list,
   sort by fd, so every pass over connections is deterministic. *)
let sorted_conns t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
  |> List.sort (fun a b -> compare a.cfd b.cfd)

(* Per-connection output high-watermark: above it, reads are paused. *)
let max_out_bytes = 1 lsl 20

(* How long [shutdown] lets connections drain before force-closing. *)
let shutdown_grace_s = 5.0

let create ?(idle_timeout = 0.) ~listen ~handlers () =
  (* A peer that vanishes with replies still queued must surface as
     EPIPE on the writev ([flush_out] closes the connection), not as a
     process-killing SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Unix.set_nonblock listen;
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let ep = Epoll.create () in
  Epoll.add ep listen ~read:true ~write:false;
  Epoll.add ep pipe_r ~read:true ~write:false;
  {
    ep;
    listen;
    conns = Hashtbl.create 64;
    handlers;
    read_buf = Bytes.create 65536;
    pipe_r;
    pipe_w;
    lock = Mutex.create ();
    injected = Queue.create ();
    dirties = Queue.create ();
    idle_timeout;
    accepting = true;
    stopping = false;
    deadline = infinity;
    last_sweep = now ();
    accept_paused_until = 0.;
    finished = false;
  }

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove t.conns c.cfd;
    (try Epoll.remove t.ep c.cfd with Unix.Unix_error _ -> ());
    (try Unix.close c.cfd with Unix.Unix_error _ -> ());
    try t.handlers.on_close t c with _ -> ()
  end

(* Keep the registered interest mask in sync with the connection's
   wishes: write interest iff output is queued; read interest unless
   the connection is draining toward close or its output queue is past
   the high-watermark (backpressure: stop reading from peers we cannot
   answer fast enough). *)
let update_interest t c =
  if not c.closed then begin
    let want_w = c.out_bytes > 0 in
    let want_r = (not c.drain_close) && c.out_bytes < max_out_bytes in
    if want_r <> c.reg_read || want_w <> c.reg_write then begin
      Epoll.modify t.ep c.cfd ~read:want_r ~write:want_w;
      c.reg_read <- want_r;
      c.reg_write <- want_w
    end
  end

let iov_advance iov n =
  if n = 0 then iov
  else
    match iov with
    | Epoll.Str (s, off, len) -> Epoll.Str (s, off + n, len - n)
    | Epoll.Byt (b, off, len) -> Epoll.Byt (b, off + n, len - n)
    | Epoll.Big (b, off, len) -> Epoll.Big (b, off + n, len - n)

exception Done

(* First [max_iov] queued iovecs, with the head advanced past the bytes
   a previous partial write already pushed out. *)
let out_array c =
  let n = min Epoll.max_iov (Queue.length c.outq) in
  let arr = Array.make n (Queue.peek c.outq) in
  let i = ref 0 in
  (try
     Queue.iter
       (fun iov ->
         if !i >= n then raise Done;
         arr.(!i) <- (if !i = 0 then iov_advance iov c.head_off else iov);
         incr i)
       c.outq
   with Done -> ());
  arr

let pop_written c w =
  c.out_bytes <- c.out_bytes - w;
  let rem = ref w in
  while !rem > 0 do
    let head_left = Epoll.iovec_len (Queue.peek c.outq) - c.head_off in
    if head_left <= !rem then begin
      ignore (Queue.pop c.outq);
      c.head_off <- 0;
      rem := !rem - head_left
    end
    else begin
      c.head_off <- c.head_off + !rem;
      rem := 0
    end
  done

let flush_out t c =
  let continue = ref true in
  while !continue && (not c.closed) && not (Queue.is_empty c.outq) do
    match Epoll.writev c.cfd (out_array c) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error (_, _, _) ->
        close_conn t c;
        continue := false
    | 0 -> continue := false
    | w -> pop_written c w
  done;
  if not c.closed then
    if Queue.is_empty c.outq && c.drain_close then close_conn t c
    else update_interest t c

(* Sends only enqueue; the actual writev happens once per event-loop
   round ([flush_dirty]), so all replies produced for one connection in
   one round coalesce into as few syscalls as the iovec limit allows. *)
let send t c iovs =
  if not c.closed then begin
    List.iter
      (fun iov ->
        let l = Epoll.iovec_len iov in
        if l > 0 then begin
          Queue.add iov c.outq;
          c.out_bytes <- c.out_bytes + l
        end)
      iovs;
    if not c.dirty then begin
      c.dirty <- true;
      Queue.add c t.dirties
    end
  end

let flush_dirty t =
  while not (Queue.is_empty t.dirties) do
    let c = Queue.pop t.dirties in
    c.dirty <- false;
    if not c.closed then flush_out t c
  done

let close_when_drained t c =
  if not c.closed then begin
    c.drain_close <- true;
    if Queue.is_empty c.outq then close_conn t c else update_interest t c
  end

let wake_byte = Bytes.make 1 '\000'

let inject t f =
  Mutex.lock t.lock;
  if not t.finished then begin
    Queue.add f t.injected;
    (* The wake write stays inside the critical section: [run]'s
       epilogue closes [pipe_w] under the same lock after setting
       [finished], so the fd can never be closed — or reused by a
       later open — between the check and the write.  A full pipe
       already guarantees a pending wakeup, so EAGAIN is fine; no
       error may escape with the lock held. *)
    try ignore (Unix.write t.pipe_w wake_byte 0 1)
    with Unix.Unix_error _ -> ()
  end;
  (* Once finished, injections are dropped: the loop that would have
     run them is gone, and every connection is already closed. *)
  Mutex.unlock t.lock

let run_injected t =
  let drain = Bytes.create 256 in
  (try
     while Unix.read t.pipe_r drain 0 (Bytes.length drain) > 0 do
       ()
     done
   with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ());
  let fs = Queue.create () in
  Mutex.lock t.lock;
  Queue.transfer t.injected fs;
  Mutex.unlock t.lock;
  Queue.iter (fun f -> try f () with _ -> ()) fs

(* Accept failed for a reason that will not clear by itself this round
   (fd exhaustion, out of memory, ...).  Disarm the listener and let
   [run] re-arm it after a short backoff: the fd is level-triggered, so
   leaving it armed would spin the loop at 100% CPU retrying an accept
   that keeps failing — starving every established connection, which is
   worse than briefly refusing new ones. *)
let accept_backoff_s = 0.1

let pause_accept t =
  t.accept_paused_until <- now () +. accept_backoff_s;
  try Epoll.modify t.ep t.listen ~read:false ~write:false
  with Unix.Unix_error _ -> ()

let resume_accept t nw =
  if t.accept_paused_until > 0. && nw >= t.accept_paused_until then begin
    t.accept_paused_until <- 0.;
    if t.accepting then
      try Epoll.modify t.ep t.listen ~read:true ~write:false
      with Unix.Unix_error _ -> ()
  end

let rec accept_loop t budget =
  if budget > 0 && t.accepting then
    match Unix.accept ~cloexec:true t.listen with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((ECONNABORTED | EINTR), _, _) ->
        (* Per-connection casualty; the next one may be fine. *)
        accept_loop t (budget - 1)
    | exception Unix.Unix_error (_, _, _) ->
        (* EMFILE/ENFILE at the advertised connection scale, and
           anything else persistent: back off, never kill the loop. *)
        pause_accept t
    | nfd, _addr ->
        Unix.set_nonblock nfd;
        (try Unix.setsockopt nfd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let c =
          {
            cfd = nfd;
            cstate = t.handlers.on_accept nfd;
            outq = Queue.create ();
            head_off = 0;
            out_bytes = 0;
            reg_read = true;
            reg_write = false;
            drain_close = false;
            closed = false;
            dirty = false;
            last_activity = now ();
          }
        in
        Hashtbl.replace t.conns nfd c;
        Epoll.add t.ep nfd ~read:true ~write:false;
        accept_loop t (budget - 1)

let handle_read t c =
  match Unix.read c.cfd t.read_buf 0 (Bytes.length t.read_buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c
  | 0 -> close_conn t c
  | n -> (
      c.last_activity <- now ();
      (* A handler exception (e.g. a corrupt frame) kills only this
         connection, never the loop. *)
      try
        t.handlers.on_data t c t.read_buf n;
        (* A dirty conn's interest is settled by the round's flush;
           adjusting it here would register write interest only to
           retract it a moment later. *)
        if (not c.closed) && not c.dirty then update_interest t c
      with _ -> close_conn t c)

let handle_conn_event t (ev : Epoll.event) =
  match Hashtbl.find_opt t.conns ev.fd with
  | None -> ()  (* closed earlier in this batch *)
  | Some c ->
      if ev.error && not ev.readable then close_conn t c
      else begin
        if ev.writable && not c.closed then flush_out t c;
        if ev.readable && not c.closed then handle_read t c
      end

let sweep t now_ =
  if t.idle_timeout > 0. then
    List.iter
      (fun c ->
        if now_ -. c.last_activity > t.idle_timeout then close_conn t c)
      (sorted_conns t)

let shutdown t =
  if not t.stopping then begin
    t.stopping <- true;
    t.accepting <- false;
    (try Epoll.remove t.ep t.listen with Unix.Unix_error _ -> ());
    t.deadline <- now () +. shutdown_grace_s;
    List.iter (fun c -> close_when_drained t c) (sorted_conns t)
  end

let run t =
  let continue = ref true in
  while !continue do
    if t.stopping && (Hashtbl.length t.conns = 0 || now () > t.deadline)
    then continue := false
    else begin
      let evs = Epoll.wait t.ep ~timeout_ms:250 in
      Array.iter
        (fun (ev : Epoll.event) ->
          if ev.fd = t.pipe_r then run_injected t
          else if ev.fd = t.listen then accept_loop t 64
          else handle_conn_event t ev)
        evs;
      flush_dirty t;
      let nw = now () in
      resume_accept t nw;
      if nw -. t.last_sweep > 1.0 then begin
        t.last_sweep <- nw;
        sweep t nw
      end
    end
  done;
  List.iter (fun c -> close_conn t c) (sorted_conns t);
  Epoll.close t.ep;
  (try Unix.close t.listen with Unix.Unix_error _ -> ());
  (* Flip [finished] and close the self-pipe under the lock, pairing
     with [inject]: an engine worker delivering a late reply sees
     either an open pipe or a no-op, never a closed/reused fd. *)
  Mutex.lock t.lock;
  t.finished <- true;
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  Mutex.unlock t.lock
