(** Typedtree acquisition: the analyzer's only representation.

    Prefers the [.cmt] files a [dune build @check] leaves under
    [.<lib>.objs/byte/] and [.<exe>.eobjs/byte/] (read via
    [Cmt_format]), but only while the cmt's source digest matches the
    file on disk.  Files without a current cmt are parsed and typed
    in-process against an environment seeded with the stdlib and unix,
    with successfully-typed modules added to the environment under their
    unit names so sibling files can reference them.  A file that types
    through neither road comes back as a [P0] finding naming the reason:
    it does not parse, or it has no current cmt and does not typecheck
    in isolation. *)

type typed_file = { file : string; structure : Typedtree.structure }

type result = {
  typed : typed_file list;  (** sorted by file path *)
  untyped : Finding.t list;  (** one [P0] per file with no typedtree *)
}

val load : root:string -> files:string list -> result
(** [load ~root ~files] resolves a typedtree for each root-relative
    [.ml] path in [files]. *)

val module_name_of_file : string -> string
(** ["lib/corpus/campaign.ml"] -> ["Campaign"]: the unit name used for
    cross-module resolution. *)
