(** On-disk grammar of a verdict corpus, shared by the campaign writer
    ({!Campaign}) and the mmap reader ({!Snapshot}).

    A corpus is a directory:

    {v
    MANIFEST        checkpoint state (text, atomically replaced)
    shard-000.seg   append segment: magic + framed verdict records
    shard-000.idx   fixed-width sorted index, written once at seal time
    ...
    v}

    A segment record is

    {v
    crc32 (u32 LE, Core.Crc32 over everything after it) | tag (u8) |
    band (u8) | key len (u16 LE) | payload len (u32 LE) | key | payload
    v}

    with [tag] 0 for a BN-refuted (non-exact) prototile and 1 for an
    exact one, [key] the canonical cell-list key ({!Core.Verdict.key}),
    and - for exact records - a payload that is the verdict body
    ({!Core.Verdict.body_to_string}: the tiling line followed by the
    three certificate lines).  An index file is its magic, a u64 LE entry
    count, then [count] entries of [key hash (u64 LE) | record offset
    (u64 LE)] sorted by (hash, offset): lookup is binary search on the
    hash then a key-bytes comparison against the mapped segment.

    Everything is deterministic - same parameters, byte-identical
    corpus - so crash-recovery correctness is checkable with [cmp]. *)

val seg_magic : string
val idx_magic : string
val magic_len : int

val version : int
(** Format version recorded in the manifest; readers reject others. *)

val header_size : int
(** Bytes of a record frame before the key. *)

val idx_entry_size : int

val tag_non_exact : int
val tag_exact : int

val manifest_name : string
val segment_name : int -> string
val index_name : int -> string

val hash_key : string -> int
(** FNV-1a of the key bytes folded to 62 bits (always non-negative). *)

val shard_of_key : shards:int -> string -> int
(** [hash_key key mod shards]. *)

val put_u16 : Bytes.t -> int -> int -> unit
val put_u32 : Bytes.t -> int -> int -> unit
val put_u64 : Bytes.t -> int -> int -> unit
val get_u16 : string -> int -> int
val get_u32 : string -> int -> int
val get_u64 : string -> int -> int
(** Little-endian field accessors (values are non-negative ints). *)

val encode_record : band:int -> tag:int -> key:string -> payload:string -> string
(** One framed record, CRC included.  Raises [Invalid_argument] on an
    empty/oversized key, oversized payload, or band outside [1..255]. *)

val fold_records :
  string ->
  init:'a ->
  f:('a -> off:int -> band:int -> tag:int -> key:string -> payload:string -> 'a) ->
  ('a, string) result
(** Strict walk over a raw segment image (magic included): any framing,
    length or CRC violation is an [Error] naming the offset.  Unlike the
    store's longest-valid-prefix recovery, nothing here is forgiven -
    the campaign only publishes fsynced, manifest-covered bytes, so a
    bad frame is corruption. *)

type band = {
  n : int;
  classes : int;
  exact : int;
  non_exact : int;
  lens : int array;  (** cumulative per-shard segment length after this band, bytes *)
}

type manifest = {
  shards : int;
  sealed : bool;  (** indexes written; snapshots may open *)
  bands : band list;  (** contiguous, ascending [n] starting at 1 *)
}

val manifest_to_string : manifest -> string
val manifest_of_string : string -> (manifest, string) result

val pp_bands : Format.formatter -> band list -> unit
(** One ["band n=.. classes=.. exact=.. non-exact=.."] line per band and
    a ["total ..."] line, each preceded by a newline. *)

val completed : manifest -> int
(** Highest fully-checkpointed band, 0 for none. *)

val shard_lengths : manifest -> int array
(** Per-shard segment byte length as of the last checkpointed band (the
    truncation targets for crash repair); all [magic_len] when no band
    has completed. *)
