(** The benchmark suites behind the [BENCH_*.json] artifacts, shared
    between the experiment harness ([bench/main.exe]) and the
    [tilesched bench] subcommand.

    {!suites} is the one table of them: each entry names a suite, its
    artifact and the rows the artifact must carry.  An artifact is a
    JSON array of [{"name": ..., "ns_per_call": ...}] objects (mostly
    Bechamel OLS estimates of nanoseconds per call) which CI
    regenerates, schema-checks with {!validate_json} and uploads, so
    regressions are visible as a diffable time series. *)

type row = { name : string; ns_per_call : float }

val staircase : int -> Lattice.Prototile.t
(** Exact staircase polyomino with ~4k+2 boundary letters - the standard
    scaling family for the Beauquier-Nivat decision (also used by the
    EXP-S3 and EXP-A2 experiment sections). *)

val cross : int -> Lattice.Prototile.t
(** The [(2n - 1)]-cell cross: row 0 union column 0 of the [n x n]
    square.  Any two torus translates of it intersect, which is what
    makes {!skew_instance} adversarially skewed.  Requires [n >= 2]. *)

val skew_instance : n:int -> Lattice.Sublattice.t * Lattice.Prototile.t list
(** The adversarial skewed exact-cover instance of EXP-P3: [cross n]
    plus the monomino on the [n x n] torus.  At most one cross fits in
    any cover, so there are exactly [1 + n^2] covers and the single
    monomino-at-cell-0 root branch owns [(n^2 - 2n + 2) / (n^2 + 1)] of
    them - at least 90% for [n >= 20] (93% at the benchmark's [n = 28]).
    A static root split serializes that branch on one worker; lazy
    stealing re-splits it. *)

val skew_root_share : n:int -> float
(** Fraction of the instance's covers that lie in the fat root branch
    (monomino covering cell 0), measured by filtered enumeration at
    [jobs = 1].  The skew test asserts this is [>= 0.9] at [n = 20]. *)

type suite = {
  id : string;  (** the [tilesched bench SUITE] name *)
  artifact : string;  (** the artifact's file name, e.g. [BENCH_5.json] *)
  doc : string;  (** one line for [--help] *)
  required : string list;
      (** substrings {!validate_json} demands among the artifact's row
          names *)
  runner : quota:float -> exe:string option -> row list;  (** call through {!run} *)
}

val suites : suite list
(** Every benchmark suite, one entry per artifact; ids and artifact names
    are unique, and each suite returns its rows sorted by name.  Rows
    that are not Bechamel ns-per-call estimates ride the same schema in
    the unit their name's suffix states.

    - [micro] ([BENCH_5.json], EXP-P2): one row per hot subsystem, plus
      the {!Tiling.Search} kernel ([*-bitmask]) against the
      {!Tiling_oracle} backtracker ([*-backtracking]) on S/Z tetrominoes
      over the 4x8 torus (1024 solutions, jobs = 1), as enumeration
      ([torus-all-*]) and materializing search ([torus-mat-*]).
    - [skew] ([BENCH_6.json], EXP-P3): covers of [skew_instance ~n:28]
      counted at jobs = 1 and jobs = 4; schema-checked only, since what
      stealing gains depends on the host's cores.
    - [lifetime] ([BENCH_7.json], EXP-L1): exact first-battery-death
      slots, static vs a balanced 4-cover rotation, and
      {!Lifetime.Repair.repair} timings on 8- and 56-cell windows.
    - [corpus] ([BENCH_8.json], EXP-CORPUS): one lookup in the [n <= 7]
      mmap snapshot vs a certificate store of the same verdicts, warm
      and cold-start (open, find, close).
    - [server] ([BENCH_10.json], EXP-SRV2): spawns [exe serve --corpus]
      over an [n <= 5] corpus; seven alternating text/binary pairs of
      closed-loop warm tile-search runs ([quota * 10_000] requests
      each, at least 1000), reported as the median req/s per dialect
      and the median per-pair binary/text ratio (each pair is logged on
      stderr), then p50/p95/p99 latency (us) and dropped replies of a
      fixed unpaced 10,000-connection binary run.  The daemon is shut
      down at the end, or killed if anything raises first. *)

val micro : suite
(** The [micro] suite, what a bare [tilesched bench] runs. *)

val of_artifact : string -> suite option
(** The suite whose artifact has the file name of this path (the
    directory part is ignored). *)

val run : ?quota:float -> ?exe:string -> suite -> row list
(** Run a suite.  [quota] is the Bechamel time budget per benchmark in
    seconds (default 0.5); smaller quotas trade estimate quality for
    wall time, which is what the CI smoke run wants.  [exe] is the
    [tilesched] executable the [server] suite spawns; the other suites
    ignore it.  Raises [Invalid_argument] if [quota <= 0] or if the
    [server] suite gets no [exe]. *)

val to_json : row list -> string
(** Serialize rows as a JSON array of two-key objects, one per line.
    Output round-trips through {!validate_json} provided the rows
    include the demanded names. *)

val validate_json : suite -> string -> (row list, string) result
(** Strict schema check for a suite's artifact: a single JSON array of
    objects with exactly the keys ["name"] (string) and ["ns_per_call"]
    (a non-negative number in JSON's own number grammar) in either
    order, no trailing garbage, and every one of the suite's [required]
    substrings present among the names.  Returns the parsed rows, or a
    message locating the first problem (naming the missing rows). *)

val write_json : suite -> string -> row list -> (string, string) result
(** Validate [to_json rows] against the suite, then write it to the
    path, or to the suite's artifact name inside it when the path is a
    directory.  Returns the path written, or an error naming the
    invalid row set or the unwritable path; nothing is written in
    either case. *)
