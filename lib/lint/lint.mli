(** Project-invariant static analyzer.

    One pipeline over one representation, with no dependencies beyond
    compiler-libs: every [.ml] under [lib/], [bin/], and [test/] gets a
    typedtree ({!Typed_load}: the dune [.cmt] when its source digest is
    current, in-process [Typemod] typing otherwise), and every rule
    matches resolved [Path.t]s, with file-local module aliases
    expanded.  A file with no typedtree is a [P0] finding saying why
    (it does not parse, or it has no current [.cmt] and does not
    typecheck in isolation); nothing is left to partial coverage.

    {!Checks}, on every file:
    - {b R1 determinism} - no wall-clock ([Sys.time],
      [Unix.gettimeofday]), no [Random.self_init], no unordered
      [Hashtbl.iter]/[Hashtbl.fold] in library code (allowlisted where
      wall-clock is the point: the search deadline, the load generator
      and the event loop's timeouts).
    - {b R2 forbidden constructs} - [Obj.magic] and [Marshal] anywhere,
      [exit] outside [bin/].
    - {b R3 task purity} - no mutation of captured state inside closures
      submitted to the [Parallel] fan-out entry points or to
      [Parallel.Steal.run]/[spawn].
    - {b R4 crash safety} - in [lib/store] and [lib/corpus], every
      rename is preceded by an [Unix.fsync] in the same function body.
    - {b R5 interface coverage} ({!Driver}) - every [lib/**/*.ml] has a
      matching [.mli].

    {!Dataflow}, on the library sources:
    - {b R1' determinism (interprocedural)} - taint seeded at the R1
      constructs propagates over the intra-library call graph
      ({!Callgraph}); reaching a seed through any chain of helpers is a
      finding at the call site.  Allowlist entries suppress by root
      cause.
    - {b R6 lock discipline} - in [lib/parallel], every [Mutex.lock] is
      released on all paths including raises, no double lock, no
      blocking call while a deque/pool mutex is held.
    - {b R7 resource lifetime} - in [lib/], every let-bound open
      reaches a close on every path; raising while a descriptor is open
      and unprotected is a leak.

    Unused allowlist entries are reported as [A0]: the rule-book
    allowlists are the one escape hatch.  Scoping and allowlists (with
    justifications) are described in DESIGN.md paragraphs 10 and 15. *)

module Finding = Finding
module Rules = Rules
module Checks = Checks
module Typed_load = Typed_load
module Callgraph = Callgraph
module Dataflow = Dataflow
module Driver = Driver

include module type of struct
  include Driver
end
