(** Single-writer event loop over {!Epoll}.

    One thread (the one inside {!run}) owns every socket: it accepts,
    reads, parses via the caller's [on_data], and writes queued iovecs.
    Other domains never touch a connection directly — they hand the
    loop a closure through {!inject}, which wakes the loop via a
    self-pipe and runs the closure on the loop thread.  That is the
    ready-queue bridge the engine worker uses to deliver replies
    without ever blocking the loop on engine time.

    Per-connection lifecycle (driven level-triggered):

    {v
      accept -> reading -> (on_data consumes bytes, may send) -> writing
                   ^                                               |
                   +------------- drained / partial ---------------+
    v}

    Backpressure: a connection whose output queue exceeds 1 MiB has
    its read interest suspended until the queue drains below that
    watermark, so a slow reader cannot balloon server memory.  Write
    interest is flipped on only while the queue is non-empty. *)

type 'a t
(** A loop whose connections carry caller state of type ['a]. *)

type 'a conn
(** One accepted connection.  Owned by the loop thread. *)

type 'a handlers = {
  on_accept : Unix.file_descr -> 'a;
      (** Initial per-connection state for a freshly accepted socket. *)
  on_data : 'a t -> 'a conn -> bytes -> int -> unit;
      (** [on_data t c buf n]: bytes [0..n-1] of [buf] just arrived.
          [buf] is loop-owned scratch, valid only for this call — copy
          anything kept.  An exception closes [c] (and only [c]). *)
  on_close : 'a t -> 'a conn -> unit;
      (** Called exactly once, after the fd is closed. *)
}

val create :
  ?idle_timeout:float -> listen:Unix.file_descr -> handlers:'a handlers -> unit -> 'a t
(** [idle_timeout] (seconds; 0 = disabled, the default) closes
    connections with no inbound traffic for that long.  [listen] must
    be a bound, listening socket; the loop sets it non-blocking and
    closes it when {!run} returns. *)

val run : 'a t -> unit
(** Serve until {!shutdown} completes.  Closes the listener, the epoll
    fd and any remaining connections before returning. *)

val shutdown : 'a t -> unit
(** Stop accepting, let queued output drain, then stop.  Connections
    still open after 5 seconds are force-closed.
    Loop-thread only (use {!inject} from elsewhere). *)

val inject : 'a t -> (unit -> unit) -> unit
(** Thread-safe: queue [f] to run on the loop thread and wake the
    loop.  The only entry point for other domains.  After {!run} has
    returned this is a no-op ([f] is dropped), so workers delivering
    late replies during teardown are safe. *)

val send : 'a t -> 'a conn -> Epoll.iovec list -> unit
(** Queue iovecs on [c]'s output.  Bytes are not written here: the
    connection is marked dirty and flushed with writev once at the end
    of the current event-loop round, so all replies produced for one
    connection in a round coalesce into as few syscalls as the iovec
    limit allows.  Zero-length iovecs are dropped.  Loop-thread
    only. *)

val close_conn : 'a t -> 'a conn -> unit
(** Close immediately, discarding queued output.  Loop-thread only. *)

val close_when_drained : 'a t -> 'a conn -> unit
(** Close once queued output is flushed; stops reading now. *)

val state : 'a conn -> 'a
val set_state : 'a conn -> 'a -> unit

val fd : 'a conn -> Unix.file_descr
val pending_out : 'a conn -> int
val active_conns : 'a t -> int
