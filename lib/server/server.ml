(* Library root: the engine's API lives directly on [Server] (so
   [Server.create] / [Server.handle] / [Server.handle_batch] serve the
   in-process use case), with the building blocks exposed as
   submodules. *)

module Cache = Cache
module Protocol = Protocol
module Wire = Wire
module Dialect = Dialect
module Engine = Engine
module Frontend = Frontend
module Loadgen = Loadgen
include Engine
