(* Getting typedtrees for the scanned sources.

   Two roads lead to a [Typedtree.structure]:

   - [.cmt] files.  Dune compiles everything with [-bin-annot], so a
     tree built with [dune build @check] carries a cmt per module under
     [.<lib>.objs/byte/] (libraries) or [.<exe>.eobjs/byte/]
     (executables and tests); [Cmt_format.read_cmt] hands back the full
     typedtree plus the root-relative source path it was compiled from.
     A cmt is used only while its source digest matches the file on
     disk: a native-only rebuild leaves stale cmts behind, and their
     typedtree describes code that no longer exists.

   - In-process typechecking, for files without a current cmt (fixture
     trees, which the test suite builds in temp dirs, have no build
     artifacts).  We drive [Typemod.type_structure] ourselves against an
     initial environment that can see the stdlib and the unix library.
     Files may reference each other by module name: typing runs in
     passes, and every successfully-typed module's signature is added to
     the environment (as a plain module, not a persistent unit) so later
     passes can resolve it.

   A file that types through neither road is a P0 finding that says
   why; there is no partial coverage. *)

type typed_file = { file : string; structure : Typedtree.structure }

type result = {
  typed : typed_file list;  (** sorted by file path *)
  untyped : Finding.t list;  (** one P0 per file with no typedtree *)
}

(* ---------- cmt discovery ---------- *)

let is_dir path = Sys.file_exists path && Sys.is_directory path

(* Every [*.cmt] below [dir]; dune keeps them in the [byte] directory of
   a library's [.objs] or an executable's [.eobjs]. *)
let rec cmt_files dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Filename.check_suffix entry ".cmt" then path :: acc
        else if is_dir path then cmt_files path acc
        else acc)
      acc entries

(* The typedtrees of [files] from cmts, each with whether its cmt is
   current.  The top-level directories of [files] are searched under
   the root itself (the case when root *is* a dune build tree, e.g.
   _build/default during `dune runtest`) and under its _build/default
   (the case when root is the workspace). *)
let load_cmts ~root ~files =
  let tops =
    List.sort_uniq String.compare
      (List.map (fun f -> List.hd (String.split_on_char '/' f)) files)
  in
  let build = Filename.concat (Filename.concat root "_build") "default" in
  let paths =
    List.fold_left
      (fun acc top ->
        cmt_files (Filename.concat build top) (cmt_files (Filename.concat root top) acc))
      [] tops
  in
  List.fold_left
    (fun acc path ->
      match Cmt_format.read_cmt path with
      | {
          Cmt_format.cmt_sourcefile = Some src;
          cmt_annots = Implementation structure;
          cmt_source_digest;
          _;
        }
        when List.mem src files ->
        (* [src] is relative to the compilation root, which for dune is
           the build context dir - i.e. exactly our root-relative path. *)
        let current = cmt_source_digest = Some (Digest.file (Filename.concat root src)) in
        (src, current, structure) :: acc
      | _ | (exception _) -> acc)
    [] paths

(* ---------- in-process typechecking ---------- *)

let typing_initialized = ref false

let init_typing () =
  if not !typing_initialized then begin
    typing_initialized := true;
    (* The fixtures may use Unix; point the load path at the compiler's
       own unix library next to the stdlib. *)
    let unix_dir = Filename.concat Config.standard_library "unix" in
    Clflags.include_dirs := (if is_dir unix_dir then [ unix_dir ] else []);
    (* The analyzer reports its own findings; compiler warnings about
       fixture code are noise. *)
    ignore (Warnings.parse_options false "-a");
    Compmisc.init_path ()
  end

let module_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* The compiler's own account of an error: its location and the first
   line of its message. *)
let explain exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
    let text = Format.asprintf "%t" report.Location.main.Location.txt in
    (report.Location.main.Location.loc, List.hd (String.split_on_char '\n' text))
  | _ -> (Location.none, Printexc.to_string exn)

let parse ~root ~file =
  let src = In_channel.with_open_bin (Filename.concat root file) In_channel.input_all in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  Parse.implementation lexbuf

(* Type the given parsed files in passes: every success extends the
   environment with the module's signature under its unit name, so
   files referencing a sibling module type once the sibling has.  Files
   still failing when a full pass makes no progress come back with
   their last error. *)
let type_in_process parsed =
  init_typing ();
  let typed = ref [] in
  let env = ref (Compmisc.initial_env ()) in
  let rec pass pending =
    let failed =
      List.filter_map
        (fun (file, structure) ->
          match Typemod.type_structure !env structure with
          | exception exn -> Some ((file, structure), exn)
          | tstr, sg, _names, _shape, _env' ->
            typed := { file; structure = tstr } :: !typed;
            env :=
              Env.add_module
                (Ident.create_persistent (module_name_of_file file))
                Types.Mp_present (Types.Mty_signature sg) !env;
            None)
        pending
    in
    if List.length failed < List.length pending then pass (List.map fst failed) else failed
  in
  let failed = pass parsed in
  (!typed, List.map (fun ((file, _), exn) -> (file, exn)) failed)

(* ---------- entry point ---------- *)

let load ~root ~files =
  let cmts = load_cmts ~root ~files in
  let p0 ~file loc message = Finding.make ~rule:"P0" ~severity:Finding.Error ~file ~loc message in
  let from_cmt, missing =
    List.partition_map
      (fun file ->
        match
          List.find_map
            (fun (src, current, structure) ->
              if src = file && current then Some structure else None)
            cmts
        with
        | Some structure -> Left { file; structure }
        | None -> Right file)
      files
  in
  let parsed, unparsable =
    List.partition_map
      (fun file ->
        match parse ~root ~file with
        | structure -> Left (file, structure)
        | exception exn ->
          Right (p0 ~file (fst (explain exn)) "file does not parse with the stock OCaml grammar"))
      missing
  in
  let from_typing, ill_typed = type_in_process parsed in
  let ill_typed =
    List.map
      (fun (file, exn) ->
        let loc, error = explain exn in
        let cmt =
          if List.exists (fun (src, _, _) -> src = file) cmts then "its .cmt is stale"
          else "it has no .cmt"
        in
        p0 ~file loc
          (Printf.sprintf
             "no current typedtree: %s and the file does not typecheck in isolation (%s); run \
              `dune build @check`"
             cmt error))
      ill_typed
  in
  {
    typed = List.sort (fun a b -> String.compare a.file b.file) (from_cmt @ from_typing);
    untyped = List.sort Finding.compare (unparsable @ ill_typed);
  }
