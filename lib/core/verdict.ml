open Lattice

let key_of_canonical canon = Codec.vecs_to_string (Prototile.cells canon)
let key tile = key_of_canonical (Symmetry.canonical tile)

let body_to_string tiling certificate =
  Codec.tiling_to_string tiling ^ "\n" ^ Certificate.to_string certificate

let body_of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char '\n' s with
  | [ tiling_line; c1; c2; c3 ] ->
    let* tiling = Codec.tiling_of_string tiling_line in
    let* certificate = Certificate.of_string (String.concat "\n" [ c1; c2; c3 ]) in
    Ok (tiling, certificate)
  | _ -> Error "malformed verdict body (want a tiling line and three certificate lines)"

(* The stored orientation must be the canonical one: the server's
   transport step maps a cached tiling from the canonical tile to the
   client's orientation, so a record holding any other congruent
   orientation would be transported wrongly. *)
let check_key ~key tiling (certificate : Certificate.t) =
  let proto = Tiling.Single.prototile tiling in
  if not (Prototile.equal proto certificate.prototile) then
    Error "certificate prototile differs from tiling prototile"
  else if key_of_canonical proto <> key || not (Prototile.equal proto (Symmetry.canonical proto))
  then Error "key is not the canonical key of the tiling"
  else Ok ()
