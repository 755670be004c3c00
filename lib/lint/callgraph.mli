(** The intra-library call graph over typed sources.

    Nodes are top-level [let] bindings, keyed ["Unit.name"] (the unit
    name is the capitalized file basename, after undoing dune's
    [Lib__Module] mangling).  References resolve whether they are
    spelled as bare idents (same file, matched by stamp so shadowing
    resolves correctly), [Module.f], [Lib.Module.f] or the mangled
    [Lib__Module.f]. *)

type def = {
  def_key : string;  (** ["Campaign.decide"] - unit-qualified name *)
  def_file : string;
  def_ident : Ident.t;  (** binding ident; distinguishes shadowed defs *)
  def_loc : Location.t;
  def_expr : Typedtree.expression;
}

type t = {
  defs : def array;  (** in (file, source-position) order *)
  by_key : (string, int) Hashtbl.t;  (** last definition wins, as in scope *)
  units : (string, string option) Hashtbl.t;
      (** unit name -> its file; [None] marks an ambiguous name *)
  by_file_ident : (string, (Ident.t * int) list) Hashtbl.t;
}

val normalize : Path.t -> string list
(** Flatten a resolved path to components, undoing dune name mangling
    ([Corpus__Campaign] -> [Campaign], alias modules dropped) and
    stripping a leading [Stdlib]. *)

val pattern_idents : 'k Typedtree.general_pattern -> (Ident.t * Location.t) list
(** The identifiers a [let] pattern names at its top: a variable and its
    [as] aliases. *)

val build : Typed_load.typed_file list -> t

val calls : t -> def -> (int * Location.t) list
(** Resolved intra-library references inside a definition's body, as
    indices into [defs] in source order, excluding self-references. *)
