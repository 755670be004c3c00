(** The verdict campaign, the project's one offline producer: every
    free polyomino up to a band bound, decided and made durable.

    {!run} streams {!Lattice.Polyomino.enumerate_free_iter} band by
    band (area [n] = one band).  Each tile is decided by {!decide}: the
    hole test plus the Beauquier-Nivat factorization is the polynomial
    admission filter - a hole or no factorization is a {e complete}
    refutation for polyominoes, so the exact-cover machinery never runs
    on a non-exact tile; a factorization yields translation vectors
    that [Single.make] validates directly (Wijshoff-van Leeuwen), which
    is the fast path that keeps search off the campaign's critical path
    entirely.
    Verdict computation fans out over the {!Parallel} pool
    (deterministically - results are assembled in band order at every
    [-j]).

    {2 Checkpoint-resume invariant}

    Records append to per-shard segments (shard = key hash mod shard
    count).  After each band: segments are fsynced, then the manifest -
    which names the band and the cumulative byte length of every
    segment - is atomically replaced (write-temp, fsync, rename).  On
    (re)open, every segment is truncated back to its manifest length,
    dropping any partial band, and the campaign redoes work from the
    first unlisted band.  Appends are deterministic, so a killed and
    resumed campaign produces a corpus {e byte-identical} to an
    uninterrupted one - CI asserts this with [cmp] after a [kill -9].

    Sealing (building the per-shard indexes and setting the manifest's
    [sealed] flag) happens only after the last band; growing a sealed
    corpus to a larger bound drops the seal first, so stale indexes can
    never look authoritative. *)

type verdict =
  | Non_exact
      (** a hole or no BN factorization: proven untileable by translations *)
  | Exact of { tiling : Tiling.Single.t; certificate : Core.Certificate.t }

val decide : Lattice.Prototile.t -> verdict
(** Decide one 4-connected 2-D prototile (enumerated tiles are) by
    {!Lattice.Boundary_word.classify}; [Invalid_argument] otherwise. *)

val payload_of_verdict : verdict -> string
(** The segment record payload: empty for {!Non_exact}, the verdict body
    ({!Core.Verdict.body_to_string}) for {!Exact}. *)

type report = {
  dir : string;
  shards : int;
  max_n : int;
  skipped_bands : int;  (** bands already checkpointed by an earlier run *)
  bands : Layout.band list;
}

val run :
  ?pool:Parallel.pool ->
  ?progress:(n:int -> done_:int -> total:int -> unit) ->
  (* called after each appended record; the crash tests' injection point *)
  dir:string ->
  max_n:int ->
  unit ->
  (report, string) result
(** Build or resume the corpus at [dir] up to band [max_n] (1..255) and
    seal it.  A new corpus has 8 segment shards; a resumed one keeps its
    own count.  Completed bands are skipped ([skipped_bands] counts them);
    a partial band left by a crash is truncated away and redone. *)

val pp_report : Format.formatter -> report -> unit
