(** Reference exact-cover solver: the differential oracle for the
    kernel behind {!Tiling.Search}.

    One plain list backtracker, sequential only.  It branches on the
    first uncovered cell with the fewest free placements (first strict
    minimum in cell order) and tries candidates in ascending placement
    order - the kernel's branching rule - so each function below returns
    the {e same ordered list} as its {!Tiling.Search} namesake, which is
    what the tests assert.  Results are built with the checked
    {!Tiling.Multi.make}, not the search's fast path, so the oracle
    shares no solver code with {!Tiling.Search}.

    Tests and benchmarks only: nothing on the serving or corpus path
    links this library. *)

val cover_torus :
  period:Lattice.Sublattice.t ->
  prototiles:Lattice.Prototile.t list ->
  ?max_solutions:int ->
  ?keep:(Tiling.Multi.t -> bool) ->
  unit ->
  Tiling.Multi.t list
(** {!Tiling.Search.cover_torus} at [jobs = 1]: the first
    [max_solutions] (default 64) exact covers of the quotient that
    [keep] accepts (default: all). *)

val count_torus_covers :
  period:Lattice.Sublattice.t -> prototiles:Lattice.Prototile.t list -> unit -> int
(** The length of the full {!cover_torus} enumeration, counted without
    building any {!Tiling.Multi.t}. *)

val cover_region :
  region:Zgeom.Vec.t list ->
  prototile:Lattice.Prototile.t ->
  ?torus:Lattice.Sublattice.t ->
  ?max_solutions:int ->
  ?keep:(Zgeom.Vec.t list -> bool) ->
  unit ->
  Zgeom.Vec.t list list
(** {!Tiling.Search.cover_region}: covers of [region] by translates of
    [prototile] as sorted translation lists (default [max_solutions]
    64).  Raises [Invalid_argument] on an empty region or on region
    cells congruent mod [torus]. *)
