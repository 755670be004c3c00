(* The exhaustive tile search the exactness classifier is tested
   against: the lattice stage, then one torus cover over every period
   of index [f * |N|] for [f] in 1..4.  It takes no Beauquier-Nivat
   step anywhere, so agreeing with it is evidence and not a
   tautology. *)

open Lattice

let exhaustive_tiling tile =
  match Tiling.Search.find_lattice_tiling tile with
  | Some t -> Some t
  | None ->
    let d = Prototile.dim tile and m = Prototile.size tile in
    List.concat_map (fun f -> Sublattice.all_of_index ~dim:d (f * m)) [ 1; 2; 3; 4 ]
    |> List.find_map (fun period ->
           match Tiling.Search.cover_torus ~period ~prototiles:[ tile ] ~max_solutions:1 () with
           | [ mt ] -> (
             match Tiling.Multi.pieces mt with
             | [ pc ] ->
               Result.to_option
                 (Tiling.Single.make ~prototile:tile ~period ~offsets:pc.Tiling.Multi.piece_offsets)
             | _ -> None)
           | _ -> None)
