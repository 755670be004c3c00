(** Crash-safe persistent certificate store: the runtime write-through
    tier.

    The schedule server's memory cache dies with the process; this store
    makes its completed searches durable, so a restarted daemon answers
    every previously-settled query without re-paying the tiling search.
    (The offline producer of settled verdicts is the corpus campaign,
    not this store.)  It is a write-ahead log of records

    {v canonical key -> Found (tiling + certificate) | No_tiling v}

    keyed by the congruence class ({!Core.Verdict.key}, the server
    cache's and the corpus's key too); both outcomes are cacheable
    {e forever}: a tiling carries a machine-checkable
    {!Core.Certificate}, and [No_tiling] records a completed proof of
    exhaustion of the bounded search.

    {2 On-disk format}

    A log is the 8-byte magic ["TSTORE1\n"] followed by framed records:

    {v
    'R' | payload length (u32 LE) | CRC32 of payload (u32 LE) | payload
    v}

    with the CRC from {!Core.Crc32}.  The payload is a
    [tilesched/v1;kind=store] {!Core.Codec} header line carrying [key]
    and [status], then - for [status=found] - the verdict body
    ({!Core.Verdict.body_to_string}).  Later records supersede earlier
    ones with the same key.

    {2 Recovery invariant}

    [open_] never fails on a damaged log and never trusts damaged data:
    it scans frames from the start and keeps the {e longest valid
    prefix}.  The first framing violation - bad magic, torn header,
    impossible length, CRC mismatch - ends the scan and the file is
    truncated there, so a crash mid-append (or [kill -9], or a torn
    sector) costs at most the tail records.  A frame whose CRC matches
    but whose payload fails validation (undecodable, rejected by
    {!Core.Verdict.check_key}, or a certificate rejected by
    {!Core.Certificate.check}) is {e dropped and counted}, never served.

    After recovery the whole live set is held in memory; [find] is a
    hash lookup and never touches the disk.

    {2 Compaction}

    Once at least 16 records are dead and they outnumber the live ones,
    the store snapshots: the live set is rewritten, sorted by key, to a
    temp file that is fsynced and atomically renamed over the log.  A
    failed snapshot leaves the old log in place and open for appends,
    and a failed automatic one does not fail the [put] or [open_] that
    triggered it.

    Not thread-safe; the server serializes access (as it does for the
    memory cache). *)

type t

type entry =
  | Found of {
      tiling : Tiling.Single.t;  (** canonical orientation *)
      certificate : Core.Certificate.t;
    }
  | No_tiling  (** the bounded search proved exhaustion *)

type recovery = {
  live : int;  (** distinct keys after recovery *)
  records : int;  (** frames that passed CRC and validation *)
  dropped : int;  (** CRC-valid frames dropped by semantic validation *)
  truncated_bytes : int;  (** bytes cut from the corrupt/torn tail *)
}

val open_ : string -> t
(** Open or create the log at [path], recovering as described above.
    Raises [Sys_error] only for genuine I/O failure (permissions,
    missing directory), never for corrupt contents. *)

val path : t -> string
val recovery : t -> recovery

val length : t -> int
(** Live entries. *)

val find : t -> string -> entry option

val put : t -> string -> entry -> unit
(** Append a record and update the live set; the frame is flushed to the
    OS before returning.  A [Found] entry must hold a tiling for the
    canonical orientation whose key is [key] ({!Core.Verdict.check_key}),
    or [Invalid_argument] is raised: recovery would drop it anyway. *)

val fold : t -> init:'b -> f:('b -> string -> entry -> 'b) -> 'b
(** Over the live set in ascending key order (deterministic). *)

val compact : t -> unit
(** Force a snapshot now.  On failure ([Sys_error] or [Unix.Unix_error],
    including a failed fsync) the temp file is removed, the exception
    propagates, and the store stays open on its old log. *)

val compactions : t -> int
(** Snapshots taken since [open_] (including automatic ones). *)

val close : t -> unit
(** Flush and close; further [put]/[compact] raise [Invalid_argument].
    Idempotent. *)

val key_of_prototile : Lattice.Prototile.t -> string
(** {!Core.Verdict.key}: the store, server cache and corpus key. *)
