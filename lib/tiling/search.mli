(** Finding tilings and deciding exactness (question Q1 of the paper).

    Three searches, by generality:

    - {!lattice_tilings}: enumerate all sublattices of index [|N|] and keep
      those for which the prototile's cells form a complete residue
      system.  Finds exactly the tilings with [T] a sublattice.
    - {!cover_torus}: exact cover of a finite quotient [Z^d / Lambda],
      finding every periodic tiling with that period (including
      multi-prototile and non-lattice ones, e.g. the S/Z mix of
      Figure 5).
    - {!exactness}: the decision procedure. For 4-connected 2-D tiles
      the hole test plus the Beauquier-Nivat criterion is complete
      (together with Wijshoff-van Leeuwen's periodicity theorem); for
      arbitrary prototiles we search periods up to a bounded index
      multiple and report [`Unknown] on exhaustion - the general problem
      is open, and even prime-size prototiles can require non-lattice
      translation sets (e.g. [{0, 2}] in [Z] tiles only with
      [T = {0,1} + 4Z]).

    {!cover_torus}, {!count_torus_covers}, {!distinct_torus_covers} and
    {!cover_region} share one exact-cover kernel: word-parallel
    {!Bitset} liveness, precomputed conflict lists, an undo stack and
    incrementally maintained per-cell candidate counts.  It branches on
    the first uncovered cell with the fewest live candidates (first
    strict minimum in cell order) and tries candidates in ascending
    placement order, so every enumeration order below is deterministic.
    A plain list backtracker with the same branching rule lives in the
    test-only [tiling_oracle] library; the tests assert ordered equality
    with it. *)

val lattice_tilings :
  ?pool:Parallel.pool -> ?sched:Parallel.sched -> Lattice.Prototile.t -> Lattice.Sublattice.t list
(** All period sublattices [Lambda] of index [|N|] with the cells pairwise
    non-congruent mod [Lambda]; each yields [Single.lattice_tiling].

    The HNF enumeration is partitioned by diagonal family
    ({!Lattice.Sublattice.hnf_diagonals}) and the families are checked on
    the pool's domains (default {!Parallel.default}) under [sched]
    (default {!Parallel.default_sched}); the result list is identical to
    the sequential enumeration at every pool size and scheduler. *)

val find_lattice_tiling : Lattice.Prototile.t -> Single.t option

val cover_torus :
  period:Lattice.Sublattice.t ->
  prototiles:Lattice.Prototile.t list ->
  ?max_solutions:int ->
  ?keep:(Multi.t -> bool) ->
  ?pool:Parallel.pool ->
  ?sched:Parallel.sched ->
  unit ->
  Multi.t list
(** All exact covers of the quotient by translates of the prototiles
    (at most [max_solutions], default 64). Placements that self-overlap on
    the torus are excluded: they correspond to T2 violations in [Z^d].
    Prototiles unused by a particular solution are dropped from its piece
    list.

    [keep] filters {e during} the search: only solutions it accepts are
    returned or counted against [max_solutions], in every parallel
    subtree, so a filtered search stops as soon as enough
    acceptable covers exist instead of over-sampling (default: keep
    everything).  The result equals
    [List.filter keep (unfiltered enumeration)] truncated to
    [max_solutions].

    Placements are ordered prototile-major, then by coset
    representative ({!Lattice.Sublattice.cosets} order); the kernel
    branches as described above.

    {b Determinism contract.}  With a [pool] of more than one domain
    (default {!Parallel.default}), the search splits at the root
    branching cell - the most constrained cell, which is also the first
    cell the sequential search branches on - and solves one subtree per
    candidate placement across the domains.  How subtrees reach domains
    is [sched]'s business (default {!Parallel.default_sched}):

    - [`Steal]: root subtrees are seeded over per-worker deques
      longest-first (a live-placement-count cost model) and migrate by
      work stealing; a running subtree additionally {e re-splits
      lazily} when a thief starves, giving away the untried
      branches of its shallowest open frame.  Results commit as chunks
      keyed by canonical subtree path and are merged in key order.
    - [`Static]: the original fixed split (two levels deep when the
      root has fewer than twice [jobs] candidates), merged in branch
      order.

    Under both schedulers each subtree enumerates in the sequential
    order and the merge reproduces the sequential consumption order, so
    the returned list (contents {e and} order) is bit-identical to the
    [jobs = 1] run at every pool size, scheduler, and interleaving; the
    determinism matrix and the steal-schedule fuzzer enforce this. *)

val count_torus_covers :
  period:Lattice.Sublattice.t ->
  prototiles:Lattice.Prototile.t list ->
  ?pool:Parallel.pool ->
  ?sched:Parallel.sched ->
  unit ->
  int
(** Number of exact covers of the quotient - the length of the full
    {!cover_torus} enumeration ([max_solutions = max_int], no [keep]) -
    without materializing any solution.  The kernel traverses exactly
    the same tree in the same order as {!cover_torus}; skipping
    per-solution recording and {!Multi.t} construction is what makes
    counting the pure measure of search speed (EXP-P2 benches both).
    Pool semantics are as in {!cover_torus}; every pool size and
    scheduler returns the same count. *)

val distinct_torus_covers :
  period:Lattice.Sublattice.t ->
  prototiles:Lattice.Prototile.t list ->
  ?max_classes:int ->
  ?pool:Parallel.pool ->
  ?sched:Parallel.sched ->
  unit ->
  Multi.t list
(** Representatives of the translation-congruence classes of {e all}
    torus covers: two covers are congruent when translating one by some
    [u] in [Z^d] maps it onto the other (equivalently, by some canonical
    coset representative - period translations fix every cover).  Each
    class is keyed by the lexicographically least of its [index]
    translated serializations; the first cover of each class in the
    {!cover_torus} enumeration order is kept, and the first
    [max_classes] representatives (default: all) are returned in that
    order.

    Congruent covers use the same tile {e shapes} at shifted positions,
    so they induce genuinely different slot assignments to sensors -
    these classes are the raw material for duty-cycle rotation
    ([Lifetime.Rotation]).  The underlying enumeration is exhaustive
    ([max_solutions = max_int]), so this is for the small periods
    rotation actually uses; pool/sched semantics (and determinism) are
    those of {!cover_torus}. *)

val cover_region :
  region:Zgeom.Vec.t list ->
  prototile:Lattice.Prototile.t ->
  ?torus:Lattice.Sublattice.t ->
  ?max_solutions:int ->
  ?keep:(Zgeom.Vec.t list -> bool) ->
  unit ->
  Zgeom.Vec.t list list
(** All exact covers of the finite cell set [region] by whole translates
    of [prototile] (at most [max_solutions], default 64): each solution
    is the sorted list of translations [t] with the [t + N] partitioning
    the region.  Candidate translations are exactly those with
    [t + N] inside the region, tried in ascending {!Zgeom.Vec.compare}
    order by the shared kernel (sequentially - repair windows are
    small), so the enumeration order is deterministic.  [keep]
    filters during the search, as in {!cover_torus}: only accepted
    solutions count against [max_solutions].  Duplicate region cells are
    merged; the empty region is rejected.

    In plane mode (no [torus]) the answer is 0 or 1 covers, always: an
    exact cover of a finite region by translates of one prototile is
    unique when it exists.  (Proof: the lexicographically least
    uncovered cell [c] must be covered by the translate placing the
    tile's least cell at [c] - any other placement would put a
    lexicographically smaller tile cell inside the region, still
    uncovered - and induction on the remaining cells finishes.)

    With [torus = Lambda] all arithmetic happens mod the sublattice:
    region cells must be pairwise non-congruent ([Invalid_argument]
    otherwise), candidate translations are canonical coset
    representatives, tiles wrap, and self-overlapping placements are
    discarded.  Wrapped regions escape the uniqueness argument (no
    global order survives the wrap) and genuinely admit several covers
    - e.g. a full wrapped row of horizontal bars slides freely.  That
    wrap freedom is the repair kernel of the lifetime subsystem: the
    damaged window around a dead sensor is a finite region on the
    deployment torus, and any cover found here splices back into the
    periodic schedule ([Lifetime.Repair]). *)

val find_tiling :
  ?check:(unit -> unit) -> ?torus_factors:int list -> Lattice.Prototile.t -> Single.t option
(** A single-prototile periodic tiling if one is found.  Three stages,
    in order:

    + {b lattice}: the first of {!lattice_tilings}, so an exact tile
      always gets the same lattice tiling;
    + {b refutation}: [None] without any exact-cover search when
      {!Lattice.Boundary_word.classify} refutes the tile (a hole, or no
      BN factorization) - the torus sweep below provably finds nothing
      there, since any torus cover lifts to a translation tiling of the
      plane;
    + {b torus sweep}: {!cover_torus} over the periods of index
      [f * |N|] for [f] in [torus_factors] (default [1..4]), in
      {!Lattice.Sublattice.all_of_index} order, stopping at the first
      tiling.

    [check] (default: nothing) runs before the lattice stage and before
    each torus period; an exception it raises aborts the search and
    propagates - the schedule server's wall-clock deadline is the one
    use. *)

val exactness :
  ?torus_factors:int list ->
  Lattice.Prototile.t ->
  [ `Exact | `NotExact | `Unknown ]
(** {!Lattice.Boundary_word.classify} where it applies - complete for
    every 4-connected 2-D tile, holes included ([`NotExact]); otherwise
    {!find_tiling}, which answers [`Exact] or, on exhaustion, [`Unknown]. *)

val find_respectable :
  ?torus_factors:int list ->
  Lattice.Prototile.t list ->
  ?max_solutions:int ->
  unit ->
  Multi.t list
(** Respectable multi-prototile tilings (Section 4): searches torus
    covers over periods of index [f * |N1|] for [f] in [torus_factors]
    (default [1..4]), keeping only solutions that use every prototile and
    are respectable. The first prototile must contain all others.

    The filter runs inside {!cover_torus} (its [keep] argument), so the
    search stops as soon as [max_solutions] respectable covers are found
    rather than over-sampling each period. *)
