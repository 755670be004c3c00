(* Library root: the analyzer's API lives directly on [Lint]
   ([Lint.run] / [Lint.render_human]), with the building blocks exposed
   as submodules. *)

module Finding = Finding
module Rules = Rules
module Checks = Checks
module Typed_load = Typed_load
module Callgraph = Callgraph
module Dataflow = Dataflow
module Driver = Driver
include Driver
