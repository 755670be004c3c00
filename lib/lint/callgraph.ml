(* The intra-library call graph, built from typedtrees.

   Identifiers in a typedtree carry resolved [Path.t]s, but the same
   function is reachable under several spellings: dune's wrapped
   libraries alias [lib/corpus/campaign.ml] as [Corpus.Campaign] (unit
   name [Corpus__Campaign]), sibling modules reach it through the
   generated alias module [Corpus__], and fixture trees typed in
   process see it as plain [Campaign].  [normalize] flattens a path and
   strips the dune name-mangling so all spellings become
   ["Campaign"; "decide"], and resolution keys functions as
   ["Campaign.decide"].

   Only top-level [let]s become graph nodes.  Functions inside nested
   modules or functors are not modeled: a call into one resolves to
   nothing and taint does not propagate through it (a conservative
   blind spot, documented in DESIGN.md section 15). *)

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
      (** unit name -> its file; [None] marks a name claimed by several
          files, which resolution then skips as ambiguous *)
  by_file_ident : (string, (Ident.t * int) list) Hashtbl.t;
}

(* ---------- path normalization ---------- *)

let rec raw_components = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> raw_components p @ [ s ]
  | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> raw_components p

(* Strip dune's wrapping: [Corpus__Campaign] -> [Campaign], the alias
   module [Corpus__] disappears, and a leading [Stdlib] is dropped so
   [Stdlib.Hashtbl.iter] and [Hashtbl.iter] are the same construct. *)
let demangle c =
  match String.rindex_opt c '_' with
  | Some i when i >= 1 && c.[i - 1] = '_' ->
    let tail = String.sub c (i + 1) (String.length c - i - 1) in
    if tail = "" then None else Some tail
  | _ -> Some c

let normalize path =
  let components = List.filter_map demangle (raw_components path) in
  match components with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | components -> components

(* ---------- construction ---------- *)

let unit_of_file file = Typed_load.module_name_of_file file

let rec pattern_idents : type k. k Typedtree.general_pattern -> (Ident.t * Location.t) list =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, name) -> [ (id, name.Location.loc) ]
  | Typedtree.Tpat_alias (sub, id, name) -> (id, name.Location.loc) :: pattern_idents sub
  | _ -> []

let build (files : Typed_load.typed_file list) =
  let defs = ref [] in
  let units = Hashtbl.create 64 in
  List.iter
    (fun { Typed_load.file; structure } ->
      let u = unit_of_file file in
      (match Hashtbl.find_opt units u with
      | None -> Hashtbl.replace units u (Some file)
      | Some _ -> Hashtbl.replace units u None);
      List.iter
        (fun item ->
          match item.Typedtree.str_desc with
          | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                List.iter
                  (fun (id, loc) ->
                    defs :=
                      {
                        def_key = u ^ "." ^ Ident.name id;
                        def_file = file;
                        def_ident = id;
                        def_loc = loc;
                        def_expr = vb.Typedtree.vb_expr;
                      }
                      :: !defs)
                  (pattern_idents vb.Typedtree.vb_pat))
              vbs
          | _ -> ())
        structure.Typedtree.str_items)
    files;
  let defs = Array.of_list (List.rev !defs) in
  let by_key = Hashtbl.create (Array.length defs) in
  Array.iteri (fun i d -> Hashtbl.replace by_key d.def_key i) defs;
  let by_file_ident = Hashtbl.create 64 in
  Array.iteri
    (fun i d ->
      let prev =
        match Hashtbl.find_opt by_file_ident d.def_file with Some l -> l | None -> []
      in
      Hashtbl.replace by_file_ident d.def_file ((d.def_ident, i) :: prev))
    defs;
  { defs; by_key; units; by_file_ident }

(* ---------- resolution ---------- *)

(* Resolve a referenced path to a graph node.  A bare ident resolves
   against the referencing file's own top-level bindings (by stamp, so
   shadowed definitions resolve to the right one); a qualified path
   resolves by its longest suffix [M. ... .f] whose head names a known
   unit. *)
let resolve t ~file path =
  match path with
  | Path.Pident id -> (
    match Hashtbl.find_opt t.by_file_ident file with
    | None -> None
    | Some l -> List.find_map (fun (i, d) -> if Ident.same i id then Some d else None) l)
  | _ -> (
    let components = normalize path in
    let rec suffixes = function
      | [] -> []
      | _ :: tl as l -> l :: suffixes tl
    in
    let known_unit m =
      match Hashtbl.find_opt t.units m with Some (Some _) -> true | _ -> false
    in
    let candidates =
      List.filter_map
        (fun suffix ->
          match suffix with
          | m :: (_ :: _ as rest) when known_unit m -> Some (m ^ "." ^ String.concat "." rest)
          | _ -> None)
        (suffixes components)
    in
    List.find_map (fun key -> Hashtbl.find_opt t.by_key key) candidates)

(* ---------- call-site extraction ---------- *)

let calls t (d : def) =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> (
            match resolve t ~file:d.def_file p with
            | Some j when not (Ident.same t.defs.(j).def_ident d.def_ident) ->
              acc := (j, e.Typedtree.exp_loc) :: !acc
            | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it d.def_expr;
  List.rev !acc
