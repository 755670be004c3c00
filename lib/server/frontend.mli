(** Front ends for the schedule server.

    [serve_stdio] is the line-oriented pipeline/test transport.
    [serve_unix] is the production daemon: an {!Evloop.Loop}-based
    epoll server on a Unix domain socket, speaking both wire dialects
    through one port.  The first byte of each connection picks the
    protocol — {!Wire.magic0} opens a binary frame stream, anything
    else (in practice ['t'], the record-header initial of every text
    line) the classic line protocol, so existing text clients connect
    unchanged.

    The accept/read/write machinery runs on one loop thread that never
    blocks on engine time: parsed requests cross to a dedicated engine
    domain through a FIFO bridge, are batched into [handle_batch] calls
    (preserving cross-client coalescing and admission control), and the
    encoded replies are injected back for the loop thread to write.
    Warm binary [tile-search] corpus probes skip the bridge entirely:
    the reply frame is spliced from the corpus mmap straight into the
    socket via writev iovecs on the loop thread (zero copies of the
    payload).  Replies stay in request order per connection on both
    dialects.

    Malformed text lines are answered with an [error] reply by the
    front end itself (they never reach the engine or occupy an
    admission slot); a malformed {e binary frame} closes its
    connection — and only that connection.  A [shutdown] request makes
    either server finish the batch, flush every queued reply, and exit
    cleanly. *)

val handle_lines : Engine.t -> string list -> string list * bool
(** One reply line per request line, plus [true] when the batch
    contained a [shutdown] request.  The building block for
    [serve_stdio] and for in-process load generation; [serve_unix]
    renders its replies with the same code, in either dialect. *)

val serve_stdio : Engine.t -> unit
(** Read request lines on stdin until EOF or [shutdown]; a blank line
    flushes the current batch, and batches are also flushed at the
    engine's queue bound.  Replies go to stdout. *)

val serve_unix : ?idle_timeout:float -> Engine.t -> path:string -> unit
(** Bind [path] (an existing socket file is replaced), accept clients,
    and serve until a [shutdown] request arrives; then reply, drain,
    close all connections, and unlink [path].  [idle_timeout] (seconds,
    0 = disabled, the default) closes connections with no inbound
    traffic for that long.  Every connection reads through one
    {!Dialect.cut}: a partial text line past {!Dialect.max_line} (1 MiB)
    closes the offending connection, as do binary frames that fail
    magic, version, length, CRC, or opcode validation. *)

val with_connection :
  ?binary:bool -> path:string -> ((string list -> string list) -> 'a) -> 'a
(** The socket client, text unless [binary]: connect to [path] and pass
    the callback a sender that writes its {!Dialect} messages (lines
    without ['\n'], or frames) as one burst and cuts one reply message
    per request off the socket, in order.  SIGPIPE is ignored.  A dead
    peer raises only [End_of_file] or [Unix.Unix_error]; a reply stream
    {!Dialect.cut} finds [Bad] raises [Failure].  The socket is closed
    on every path. *)
