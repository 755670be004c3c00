(** The project rule book: ids, severities, scopes and per-directory
    allowlists for every rule the analyzer enforces.  See DESIGN.md
    paragraph 10 for the prose version. *)

type scope =
  | All  (** every scanned file *)
  | Under of string list  (** only files under these path prefixes *)

type meta = {
  id : string;  (** stable id cited in diagnostics (["R1"]..["R7"]) *)
  title : string;
  rationale : string;
  scope : scope;
  allow : (string * string) list;
      (** (path prefix, justification) pairs exempt from the rule *)
}

val all : meta list
val find : string -> meta option

val prefixed : string -> string -> bool
(** [prefixed prefix path]: does [path] start with [prefix]? *)

type applicability =
  | Applies  (** in scope, no allowlist entry covers the path *)
  | Allowlisted of string
      (** suppressed by the allowlist entry with this prefix; callers
          must record the use so unused entries can be reported (A0) *)
  | Out_of_scope

val applicability : meta -> string -> applicability

val gate :
  string -> file:string -> (unit -> Finding.t list) -> Finding.t list * (string * string) list
(** [gate id ~file check] runs [check] unless [file] is outside rule
    [id]'s scope.  Returns its findings when the rule applies, or the
    (rule, allow prefix) use when an allowlist entry suppressed a
    non-empty result. *)

val describe : unit -> string
(** Human-readable rule book (for [lint --rules]). *)
