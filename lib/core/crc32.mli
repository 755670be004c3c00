(** CRC-32 (IEEE 802.3, reflected, table-driven): the one checksum
    behind the certificate store's log frames, the corpus's segment
    records and the binary wire protocol's trailers.

    The accumulator is incremental: start from {!init}, feed string and
    bigstring ranges in order, finish with [Int32.lognot].  Feeding a
    frame piecewise equals one pass over the concatenation, so a reply
    spliced from an mmap is checksummed without being assembled. *)

type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val init : int32

val string : int32 -> string -> int -> int -> int32
(** [string crc s pos len] feeds [s.[pos] .. s.[pos + len - 1]]; bounds
    are the caller's to guarantee (unchecked). *)

val bigstring : int32 -> bigstring -> int -> int -> int32

val digest : string -> int -> int -> int32
(** The finished CRC of one range: [Int32.lognot (string init s pos len)]. *)
