(** Fixed-width mutable bitsets over [{0, ..., n-1}], packed into an
    [int array] ([Sys.int_size] bits per word).

    This is the data layer of the exact-cover kernel behind
    {!Search.cover_torus}: the live-placement set is a bitset, and the
    kernel's hot loops test and flip its bits directly through
    {!unsafe_words}.

    Representation invariant: bits at positions [>= n] are zero in every
    well-formed value, so {!popcount} and {!iter} need no masking.
    Every operation below preserves it. *)

type t

val create : int -> t
(** [create n] is the empty subset of [{0, ..., n-1}].  [n >= 0]. *)

val full : int -> t
(** [full n] is [{0, ..., n-1}] itself. *)

val set : t -> int -> unit

val mem : t -> int -> bool

val popcount : t -> int

val iter : (int -> unit) -> t -> unit
(** Members in ascending order (lowest-set-bit extraction, so cost is
    proportional to the population, not the width). *)

val unsafe_words : t -> int array
(** The backing word array - physical identity, not a copy - packed
    [Sys.int_size] bits per word, lowest indices first.  Exposed so the
    search kernel can fuse bit tests with its own table lookups in
    closure-free loops.  Callers must preserve the representation
    invariant (bits at positions [>= n] stay zero) and must not grow or
    shrink the array; use the typed operations wherever speed does not
    demand otherwise. *)

val to_list : t -> int list
(** Members ascending. *)
