type report = {
  findings : Finding.t list;
  files_scanned : int;
  files_typed : int;
}

(* ---------- file walking ---------- *)

(* The analyzer's input is the project source tree: [.ml] under the
   scanned roots, skipping build and VCS artifacts. *)
let scanned_roots = [ "lib"; "bin"; "test" ]
let skip_dirs = [ "_build"; ".git"; "_opam"; "node_modules" ]

let rec walk root rel acc =
  match Sys.readdir (Filename.concat root rel) with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let rel' = rel ^ "/" ^ entry in
        if Sys.is_directory (Filename.concat root rel') then
          if List.mem entry skip_dirs then acc else walk root rel' acc
        else rel' :: acc)
      acc entries

(* Missing roots are skipped. *)
let source_files root =
  List.rev (List.fold_left (fun acc top -> walk root top acc) [] scanned_roots)

(* ---------- R5: interface coverage ---------- *)

let r5_findings files =
  match Rules.find "R5" with
  | None -> []
  | Some meta ->
    List.filter_map
      (fun f ->
        if String.ends_with ~suffix:".ml" f && Rules.applicability meta f = Rules.Applies then
          if List.mem (f ^ "i") files then None
          else
            Some
              (Finding.make ~rule:"R5" ~severity:Finding.Error ~file:f ~loc:Location.none
                 (Printf.sprintf "missing interface file %si: every library module must \
                                  declare its API in a .mli"
                    f))
        else None)
      files

(* ---------- A0: unused allowlist entries ---------- *)

(* Every allowlist entry in the rule book must still earn its keep: an
   entry that suppressed nothing anywhere in this scan is itself a
   finding, so the book cannot accumulate stale exemptions.  Entries
   whose prefix matches no typed file are out of this scan's
   jurisdiction (fixture trees don't contain the real tree's
   allowlisted modules, and an untyped file is already a P0) and are
   left alone. *)
let a0_findings ~used ~files =
  List.concat_map
    (fun (meta : Rules.meta) ->
      List.filter_map
        (fun (prefix, why) ->
          if
            List.mem (meta.Rules.id, prefix) used
            || not (List.exists (Rules.prefixed prefix) files)
          then None
          else
            Some
              (Finding.make ~rule:"A0" ~severity:Finding.Error ~file:prefix ~loc:Location.none
                 (Printf.sprintf
                    "unused allowlist entry: rule %s never needed the exemption under %s \
                     (%s); delete the entry from the rule book"
                    meta.Rules.id prefix why)))
        meta.Rules.allow)
    Rules.all

(* ---------- entry point ---------- *)

let run ~root =
  let files = source_files root in
  let ml_files = List.filter (String.ends_with ~suffix:".ml") files in
  let loaded = Typed_load.load ~root ~files:ml_files in
  let typed = loaded.Typed_load.typed in
  let checked =
    List.map (fun { Typed_load.file; structure } -> Checks.check_structure ~file structure) typed
  in
  (* The call graph, and with it R1', R6 and R7, covers library sources. *)
  let semantic =
    Dataflow.analyze (List.filter (fun tf -> Rules.prefixed "lib/" tf.Typed_load.file) typed)
  in
  let used =
    List.sort_uniq compare (semantic.Dataflow.allow_uses @ List.concat_map snd checked)
  in
  let findings =
    loaded.Typed_load.untyped @ List.concat_map fst checked @ semantic.Dataflow.findings
    @ r5_findings files
    @ a0_findings ~used ~files:(List.map (fun tf -> tf.Typed_load.file) typed)
  in
  {
    findings = List.sort Finding.compare findings;
    files_scanned = List.length ml_files;
    files_typed = List.length typed;
  }

(* ---------- rendering ---------- *)

let render_human r =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string b (Finding.to_human f);
      Buffer.add_char b '\n')
    r.findings;
  Buffer.add_string b
    (Printf.sprintf "lint: %d file%s scanned (%d typed), %d finding%s\n" r.files_scanned
       (if r.files_scanned = 1 then "" else "s")
       r.files_typed
       (List.length r.findings)
       (if List.length r.findings = 1 then "" else "s"));
  Buffer.contents b

let render_json r =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Finding.to_json f))
    r.findings;
  Buffer.add_string b
    (Printf.sprintf "],\"files_scanned\":%d,\"files_typed\":%d}\n" r.files_scanned
       r.files_typed);
  Buffer.contents b

(* Minimal SARIF 2.1.0: one run, the rule book as reportingDescriptors,
   one result per finding.  startColumn is 1-based where Finding.col is
   0-based. *)
let render_sarif r =
  let b = Buffer.create 1024 in
  let esc = Finding.json_escape in
  Buffer.add_string b
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",";
  Buffer.add_string b "\"runs\":[{\"tool\":{\"driver\":{\"name\":\"tilesched-lint\",\"rules\":[";
  let pseudo =
    [
      ( "P0",
        "no typedtree",
        "the file does not parse, or it has no current .cmt and does not typecheck in \
         isolation" );
      ("A0", "unused allowlist entry", "an allowlist entry suppressed nothing in this scan");
    ]
  in
  let descriptors =
    List.map (fun (m : Rules.meta) -> (m.Rules.id, m.Rules.title, m.Rules.rationale)) Rules.all
    @ pseudo
  in
  List.iteri
    (fun i (id, title, rationale) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"fullDescription\":{\"text\":\"%s\"}}"
           (esc id) (esc title) (esc rationale)))
    descriptors;
  Buffer.add_string b "]}},\"results\":[";
  List.iteri
    (fun i (f : Finding.t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"ruleId\":\"%s\",\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
           (esc f.Finding.rule)
           (Finding.severity_to_string f.Finding.severity)
           (esc f.Finding.message) (esc f.Finding.file) f.Finding.line (f.Finding.col + 1)))
    r.findings;
  Buffer.add_string b "]}]}\n";
  Buffer.contents b
