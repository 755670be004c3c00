(** Load generators for the schedule server: a closed-loop driver over
    either wire dialect, and an open-loop epoll client for saturation
    and tail-latency runs.

    {b Closed loop} ([run], [run_with], [run_binary]) simulates
    [clients] concurrent clients.  Each client keeps one request in
    flight: every round, each client submits its pending request (a
    retry, if the last reply was [overloaded]) or draws a fresh one -
    an operation mix over a tile catalogue with Zipf-skewed popularity,
    the regime the canonicalizing cache is built for.  The round's
    requests go to the server as one batch; replies are tallied and the
    loop continues until [requests] requests have completed (an
    [overloaded] reply is a retry, not a completion).

    Request generation is driven by one deterministic {!Prng.Xoshiro}
    stream per client, seeded from [seed], so the request sequence -
    and, against an in-process engine, every reply byte - is identical
    at every [-j]: the deterministic half of the report can be diffed
    across pool sizes while the timing half floats.

    {b Open loop} ([run_open]) holds [connections] non-blocking
    sockets against the daemon through a client-side {!Evloop.Epoll}
    and issues requests at a global target [rate] (0 = as fast as the
    connection pool allows), one in flight per connection, measuring
    per-request latency percentiles.  Replies that fail to decode are
    counted as [dropped], never silently retried - the CI saturation
    gate requires that count to be zero. *)

open Lattice

type op_mix = [ `Mixed | `Search_only ]
(** [`Mixed] is the historical 80/15/5 slot/schedule/tile-search blend;
    [`Search_only] issues only [tile-search] requests, the workload the
    zero-copy corpus splice path serves. *)

type config = {
  requests : int;  (** total completions to drive *)
  clients : int;
  zipf : float;  (** popularity skew exponent (0 = uniform) *)
  seed : int64;
  tiles : (string * Prototile.t) list;  (** catalogue, most popular first *)
  ops : op_mix;
  send_shutdown : bool;  (** finish with a [shutdown] request *)
}

val default_tiles : (string * Prototile.t) list
(** A 2-D catalogue that deliberately contains congruent pairs under
    different names (S/Z and L/J tetrominoes, [rect2x3]/[rect3x2],
    [tet-O]/[rect2x2]) so the canonicalizing cache has something to
    merge. *)

val default : config
(** 10,000 requests, 8 clients, zipf 1.1, seed 1, {!default_tiles},
    mixed operations, no shutdown. *)

type report = {
  requests : int;
  completed : int;
  ok : int;
  no_tiling : int;
  deadline : int;
  errors : int;
  overloaded_replies : int;  (** retries forced by backpressure *)
  rounds : int;
  by_op : (string * int) list;  (** completions per operation name *)
  by_source : (string * int) list;
      (** completions per reply {!Protocol.source} (tile replies only) *)
  hit_rate : float;  (** cache hits / (hits + misses), from server stats *)
  server : Protocol.server_stats;  (** snapshot after the last completion *)
  checksum : string;  (** hex digest over every reply, in order *)
  latency : Netsim.Stats.snapshot;  (** per-round latency, microseconds *)
  elapsed_s : float;
  throughput : float;  (** completions per second *)
}

val run_with : send:(string list -> string list) -> config -> report
(** Drive any text transport: [send] takes a batch of request lines and
    returns one reply line per request, in order
    ({!Frontend.with_connection} provides one for a socket). *)

val run_binary :
  send:
    (Protocol.request list -> (int option * Protocol.response, string) result list) ->
  config ->
  report
(** Drive a binary transport ({!Frontend.with_binary_connection}
    provides one).  The transport assigns burst-local frame ids, so
    replies are matched to requests by position; a reply that fails to
    decode completes its request as an error.  The checksum digests the
    text rendering of each decoded reply. *)

val run : Engine.t -> config -> report
(** In-process: drive the engine directly through {!Frontend.handle_lines}. *)

(** {2 Open-loop mode} *)

type open_config = {
  connections : int;  (** concurrent sockets held against the daemon *)
  rate : float;  (** aggregate requests/second; 0 = unpaced *)
  total : int;  (** requests to send *)
  binary : bool;  (** wire dialect *)
  zipf : float;
  seed : int64;
  tiles : (string * Prototile.t) list;
  ops : op_mix;
  send_shutdown : bool;  (** send [shutdown] after the run, on a fresh connection *)
}

val open_default : open_config
(** 64 connections, unpaced, 10,000 requests, binary, zipf 1.1, seed 1,
    {!default_tiles}, mixed operations, no shutdown. *)

type open_report = {
  sent : int;
  completed : int;
  dropped : int;
      (** replies that failed to decode, plus in-flight requests lost to
          a connection error or the stall limit; must be 0 on a healthy
          run (the CI saturation gate enforces exactly that) *)
  errors : int;  (** [error] replies *)
  overloaded_replies : int;
      (** [overloaded] replies; completions in open-loop accounting (the
          request got its answer), unlike the closed-loop retry *)
  by_source : (string * int) list;
  latency : Netsim.Stats.snapshot;
      (** per-request latency, microseconds, up to the decoded reply.
          Paced runs ([rate > 0]) start each request's clock at its
          scheduled send time (the pacer slot it consumed), not at the
          actual write, so a request held back because every connection
          was busy counts its wait: no coordinated omission.  Unpaced
          runs have no schedule and start the clock at the write. *)
  elapsed_s : float;
  throughput : float;  (** completions per second *)
}

val run_open : path:string -> open_config -> open_report
(** Drive the daemon at Unix socket [path].  Each connection keeps at
    most one request in flight; the pacer releases the next request
    when its inter-arrival deadline passes {e and} an idle connection
    exists, so a saturated pool degrades to closed-loop at the pool
    size rather than queueing unboundedly client-side.  A run whose
    outstanding requests see no reply for 30 seconds writes them off as
    [dropped] and terminates. *)

val pp_report : Format.formatter -> report -> unit
(** The deterministic half only - safe to diff across [-j]. *)

val pp_timing : Format.formatter -> report -> unit
(** The wall-clock half: elapsed, throughput, latency percentiles, plus
    the per-source completion counts (which depend on whether a store is
    attached, so they stay out of {!pp_report}'s diffable output). *)

val pp_open_report : Format.formatter -> open_report -> unit
(** Everything in an open-loop report is wall-clock-dependent, so there
    is no diffable half. *)
