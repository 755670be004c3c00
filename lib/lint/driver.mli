(** The analyzer's entry point: walk a source tree, acquire a typedtree
    for every [.ml] ({!Typed_load}), run the rule checks ({!Checks}) on
    each and the flow analyses ({!Dataflow}) on the library sources,
    then render the findings.

    Pseudo-rules produced here rather than by the rule book:
    - [P0]: a file with no typedtree - it does not parse, or it has no
      current [.cmt] and does not typecheck in isolation (the scan
      continues);
    - [A0]: an allowlist entry that suppressed nothing in this scan. *)

type report = {
  findings : Finding.t list;  (** sorted by file, line, column *)
  files_scanned : int;
  files_typed : int;  (** sources with a typedtree (current cmt or in-process) *)
}

val run : root:string -> report
(** Scan the tree rooted at [root].  A file with no typedtree yields a
    single [P0] finding rather than aborting the scan. *)

val render_human : report -> string
(** One [file:line:col: severity[RULE]: message] line per finding plus a
    trailing summary line. *)

val render_json : report -> string
(** The whole report as one JSON object. *)

val render_sarif : report -> string
(** The whole report as a SARIF 2.1.0 log (one run, the rule book as
    reportingDescriptors). *)
