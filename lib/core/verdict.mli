(** The persistent verdict: one key and one tiling-plus-certificate body
    for every durable format.

    Theorem 1 makes a tiling plus the certificate proving its schedule
    optimal {e the} schedule, so settling a congruence class means
    persisting that pair under the class's canonical key.  The
    certificate store and the verdict corpus frame records differently,
    but both key them with {!key}, write the body with
    {!body_to_string} (the tiling line, then the three certificate
    lines) and check what they read back with {!check_key}.  Nothing
    here re-proves a certificate: callers that trust bytes from disk
    also run {!Certificate.check}. *)

val key_of_canonical : Lattice.Prototile.t -> string
(** The key of a tile already in canonical form: its encoded cell list. *)

val key : Lattice.Prototile.t -> string
(** [key_of_canonical (Symmetry.canonical tile)]. *)

val body_to_string : Tiling.Single.t -> Certificate.t -> string

val body_of_string : string -> (Tiling.Single.t * Certificate.t, string) result
(** Inverse of {!body_to_string}; the tiling is revalidated through
    [Tiling.Single.make], the certificate only parsed. *)

val check_key : key:string -> Tiling.Single.t -> Certificate.t -> (unit, string) result
(** [Ok ()] iff the certificate's prototile is the tiling's, that
    prototile is in canonical orientation, and [key] is its {!key}. *)
