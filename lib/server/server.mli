(** Library root: the schedule-serving daemon.

    The engine's API lives directly on [Server] ({!create} / {!handle} /
    {!handle_batch} serve the in-process use case - see {!Engine} for
    the batching, coalescing, and backpressure semantics), with the
    building blocks exposed as submodules. *)

module Cache = Cache
module Protocol = Protocol
module Wire = Wire
module Dialect = Dialect
module Engine = Engine
module Frontend = Frontend
module Loadgen = Loadgen

include module type of struct
  include Engine
end
