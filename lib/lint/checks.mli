(** Typedtree checks for rules R1 (determinism, direct construct uses),
    R2 (forbidden constructs), R3 (task purity), and R4
    (fsync-before-rename).  R5 is a file-system property and lives in
    {!Driver}; the interprocedural/flow-sensitive layers (R1' taint, R6,
    R7) live in {!Dataflow} and share {!seeds} and {!structure_roots}. *)

val on_exprs : (Typedtree.expression -> unit) -> Tast_iterator.iterator
(** An iterator that calls the function on every expression, parents
    before children. *)

val resolver : Typedtree.structure -> Path.t -> string list
(** [Callgraph.normalize] after expanding the structure's own module
    aliases ([module U = Unix], also as [let module]), so
    [U.gettimeofday] resolves to [["Unix"; "gettimeofday"]]. *)

val seeds :
  resolve:(Path.t -> string list) -> Typedtree.expression -> (string * Location.t) list
(** The R1 seed constructs under an expression, named as in diagnostics
    (["Unix.gettimeofday"], ["Hashtbl.fold"], ...), in traversal order.
    A [Hashtbl.iter]/[fold] inside the arguments of a [List]/[Array]
    sort is ordered output and not a seed. *)

val structure_roots : Typedtree.structure -> Typedtree.value_binding list
(** Every value binding of a [let] structure item, at any module depth. *)

val check_structure :
  file:string -> Typedtree.structure -> Finding.t list * (string * string) list
(** Run every applicable rule over one typed implementation.  [file] is
    the root-relative path used for scoping, allowlists, and
    diagnostics.  Returns the findings together with the (rule, allow
    prefix) pairs whose allowlist entries suppressed a would-be finding
    (consumed by the driver's A0 unused-allowlist check). *)
