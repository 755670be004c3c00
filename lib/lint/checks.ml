(* Typedtree walks for rules R1-R4 (R5 is a file-system check and lives
   in the driver; R1', R6 and R7 are the flow analyses of Dataflow).
   Every check matches on resolved paths, so [let open Unix in
   gettimeofday ()] and [module U = Unix ... U.gettimeofday ()] are the
   same construct as [Unix.gettimeofday ()]. *)

open Typedtree

let default = Tast_iterator.default_iterator

let on_exprs f = { default with expr = (fun sub e -> f e; default.expr sub e) }

(* ---------- path resolution ---------- *)

(* A file-local [module X = <path>] (at any depth, or as a [let module])
   is expanded before matching; everything else is [Callgraph.normalize]. *)
let resolver structure =
  let aliases = ref [] in
  let rec alias_of me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> alias_of me
    | _ -> None
  in
  let add id me = Option.iter (fun p -> aliases := (id, p) :: !aliases) (alias_of me) in
  let it =
    {
      (on_exprs (fun e ->
           match e.exp_desc with Texp_letmodule (Some id, _, _, me, _) -> add id me | _ -> ()))
      with
      module_binding =
        (fun sub mb ->
          Option.iter (fun id -> add id mb.mb_expr) mb.mb_id;
          default.module_binding sub mb);
    }
  in
  it.structure it structure;
  let rec expand = function
    | Path.Pident id as p -> (
      match List.find_opt (fun (a, _) -> Ident.same a id) !aliases with
      | Some (_, target) -> expand target
      | None -> p)
    | Path.Pdot (p, s) -> Path.Pdot (expand p, s)
    | p -> p
  in
  fun path -> Callgraph.normalize (expand path)

let head ~resolve f =
  match f.exp_desc with Texp_ident (p, _, _) -> Some (resolve p) | _ -> None

(* Every [let] binding introduced by a structure item at any module
   depth: the roots the per-binding rules (R4, R6, R7) analyze. *)
let structure_roots structure =
  let acc = ref [] in
  let it =
    {
      default with
      structure_item =
        (fun sub item ->
          (match item.str_desc with
          | Tstr_value (_, vbs) -> acc := List.rev_append vbs !acc
          | _ -> ());
          default.structure_item sub item);
    }
  in
  it.structure it structure;
  List.rev !acc

(* ---------- R1: determinism seeds ---------- *)

let sorting_head = function
  | [ ("List" | "Array"); ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] -> true
  | _ -> false

(* The seed constructs, each with the reason it is one. *)
let seed_construct ~in_sort = function
  | [ "Unix"; "gettimeofday" ] ->
    Some ("Unix.gettimeofday", "reads wall-clock; deterministic code must not branch on it")
  | [ "Sys"; "time" ] ->
    Some ("Sys.time", "reads the process clock; deterministic code must not branch on wall-clock")
  | [ "Random"; "self_init" ] ->
    Some
      ( "Random.self_init",
        "seeds from the environment; use an explicit Prng seed so runs are reproducible" )
  | [ "Hashtbl"; (("iter" | "fold") as fn) ] when not in_sort ->
    Some
      ( "Hashtbl." ^ fn,
        "visits bindings in unspecified order; sort the bindings (wrap the fold in List.sort) \
         before they feed fan-out or serialized output" )
  | _ -> None

(* The one seed walk, shared by R1 and R1': a Hashtbl traversal inside
   the arguments of a List/Array sort is ordered output, not a seed. *)
let seed_iterator ~resolve f =
  let in_sort = ref false in
  let expr sub e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match seed_construct ~in_sort:!in_sort (resolve p) with
      | Some (construct, why) -> f construct why e.exp_loc
      | None -> ())
    | Texp_apply (fn, _)
      when (match head ~resolve fn with Some c -> sorting_head c | None -> false) ->
      let saved = !in_sort in
      in_sort := true;
      default.expr sub e;
      in_sort := saved
    | _ -> default.expr sub e
  in
  { default with expr }

let seeds ~resolve e =
  let acc = ref [] in
  let it = seed_iterator ~resolve (fun construct _ loc -> acc := (construct, loc) :: !acc) in
  it.expr it e;
  List.rev !acc

let r1 ~resolve ~file:_ structure =
  let acc = ref [] in
  let it =
    seed_iterator ~resolve (fun construct why loc -> acc := (loc, construct ^ " " ^ why) :: !acc)
  in
  it.structure it structure;
  !acc

(* ---------- R2: forbidden constructs ---------- *)

let r2 ~resolve ~file structure =
  let acc = ref [] in
  let it =
    on_exprs (fun e ->
        match e.exp_desc with
        | Texp_ident (p, _, _) -> (
          let hit msg = acc := (e.exp_loc, msg) :: !acc in
          match resolve p with
          | [ "Obj"; "magic" ] -> hit "Obj.magic is forbidden: it defeats the type system"
          | "Marshal" :: _ ->
            hit "Marshal is forbidden: wire data must go through the validating Codec layer"
          | [ "exit" ] when not (Rules.prefixed "bin/" file) ->
            hit "exit outside bin/: libraries must return, not terminate"
          | _ -> ())
        | _ -> ())
  in
  it.structure it structure;
  !acc

(* ---------- R3: task purity ---------- *)

let mutation_kind = function
  | [ ":=" ] -> Some "reference assignment (:=)"
  | [ "incr" ] | [ "decr" ] -> Some "incr/decr"
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear") ] -> Some "Hashtbl mutation"
  | [ ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill" | "blit") ] -> Some "array mutation"
  | [ "Buffer"; s ] when String.starts_with ~prefix:"add_" s -> Some "Buffer mutation"
  | [ "Buffer"; ("clear" | "reset" | "truncate") ] -> Some "Buffer mutation"
  | [ "Queue"; ("add" | "push" | "pop" | "take" | "clear" | "transfer") ]
  | [ "Stack"; ("push" | "pop" | "clear") ] -> Some "Queue/Stack mutation"
  | _ -> None

(* Fan-out entry points of [Parallel] whose function arguments run on
   worker domains.  [Steal.run] receives its closures nested inside task
   tuples and arrays, so for the stealing entry points every lambda
   anywhere in the arguments is a task. *)
let fanout = function
  | [ "Parallel"; ("map" | "map_array" | "filter_map" | "concat_map" | "parallel_for") ] ->
    Some `Direct
  | [ "Parallel"; "Steal"; ("run" | "spawn") ] | [ "Steal"; ("run" | "spawn") ] -> Some `Nested
  | _ -> None

let is_function e = match e.exp_desc with Texp_function _ -> true | _ -> false

let outermost_lambdas e =
  let acc = ref [] in
  let expr sub e = if is_function e then acc := e :: !acc else default.expr sub e in
  let it = { default with expr } in
  it.expr it e;
  List.rev !acc

(* Identifiers bound anywhere inside a task (parameters, lets, cases,
   for indices): mutating one of them is task-local; mutating anything
   else is captured state shared with other domains. *)
let bound_idents task =
  let acc = ref [] in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_var (id, _) | Tpat_alias (_, id, _) -> acc := id :: !acc
    | _ -> ());
    default.pat sub p
  in
  let it =
    {
      (on_exprs (fun e ->
           match e.exp_desc with Texp_for (id, _, _, _, _, _) -> acc := id :: !acc | _ -> ()))
      with
      pat;
    }
  in
  it.expr it task;
  !acc

let task_mutations ~resolve acc task =
  let bound = bound_idents task in
  let report loc fmt = Printf.ksprintf (fun message -> acc := (loc, message) :: !acc) fmt in
  let flag loc what target =
    match target.exp_desc with
    | Texp_ident (Path.Pident id, _, _) when List.exists (Ident.same id) bound -> ()
    | Texp_ident (p, _, _) ->
      report loc
        "%s of `%s` captured from outside a closure submitted to Parallel fan-out; hoist the \
         mutation out of the task or make the state task-local"
        what (String.concat "." (resolve p))
    | _ -> report loc "%s of a non-local value inside a closure submitted to Parallel fan-out" what
  in
  let it =
    on_exprs (fun e ->
        match e.exp_desc with
        | Texp_apply (f, (_, Some target) :: _) -> (
          match Option.bind (head ~resolve f) mutation_kind with
          | Some what -> flag e.exp_loc what target
          | None -> ())
        | Texp_setfield (target, _, _, _) -> flag e.exp_loc "field mutation (<-)" target
        | Texp_setinstvar _ ->
          report e.exp_loc
            "instance-variable mutation inside a closure submitted to Parallel fan-out"
        | _ -> ())
  in
  it.expr it task

let r3 ~resolve ~file:_ structure =
  let acc = ref [] in
  let it =
    on_exprs (fun e ->
        match e.exp_desc with
        | Texp_apply (f, args) -> (
          let args = List.filter_map snd args in
          match Option.bind (head ~resolve f) fanout with
          | Some `Direct ->
            List.iter (task_mutations ~resolve acc) (List.filter is_function args)
          | Some `Nested ->
            List.iter (task_mutations ~resolve acc) (List.concat_map outermost_lambdas args)
          | None -> ())
        | _ -> ())
  in
  it.structure it structure;
  !acc

(* ---------- R4: fsync before rename ---------- *)

(* Within one binding, every rename must see an fsync earlier in the
   source. *)
let r4 ~resolve ~file:_ structure =
  List.concat_map
    (fun vb ->
      let renames = ref [] and fsyncs = ref [] in
      let it =
        on_exprs (fun e ->
            match e.exp_desc with
            | Texp_ident (p, _, _) -> (
              match resolve p with
              | [ ("Unix" | "Sys"); "rename" ] -> renames := e.exp_loc :: !renames
              | [ "Unix"; "fsync" ] -> fsyncs := e.exp_loc :: !fsyncs
              | _ -> ())
            | _ -> ())
      in
      it.expr it vb.vb_expr;
      let offset (loc : Location.t) = loc.loc_start.Lexing.pos_cnum in
      List.filter_map
        (fun loc ->
          if List.exists (fun f -> offset f < offset loc) !fsyncs then None
          else
            Some
              ( loc,
                "rename without a preceding Unix.fsync in the same function body; \
                 atomic-replace must flush the new file's blocks before publishing it" ))
        !renames)
    (structure_roots structure)

(* ---------- the per-file entry point ---------- *)

let check_structure ~file structure =
  let resolve = resolver structure in
  let results =
    List.map
      (fun (rule, check) ->
        Rules.gate rule ~file (fun () ->
            List.map
              (fun (loc, message) ->
                Finding.make ~rule ~severity:Finding.Error ~file ~loc message)
              (check ~resolve ~file structure)))
      [ ("R1", r1); ("R2", r2); ("R3", r3); ("R4", r4) ]
  in
  (List.concat_map fst results, List.concat_map snd results)
