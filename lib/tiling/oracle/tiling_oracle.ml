open Zgeom
open Lattice

(* The one backtracker: exact covers of cells [0 .. cells-1] by the
   [placements] footprints, depth first.  [accept] sees each cover as
   its placement indices in chronological order and says whether it
   counts; the search stops once [budget] covers have counted.  Returns
   that count. *)
let backtrack ~cells ~placements ~budget ~accept =
  let by_cell = Array.make cells [] in
  Array.iteri (fun q cs -> List.iter (fun c -> by_cell.(c) <- q :: by_cell.(c)) cs) placements;
  let by_cell = Array.map (fun l -> Array.of_list (List.rev l)) by_cell in
  let covered = Array.make cells false in
  let free q = List.for_all (fun c -> not covered.(c)) placements.(q) in
  let mark q b = List.iter (fun c -> covered.(c) <- b) placements.(q) in
  (* The branching rule: the uncovered cell with the fewest free
     placements (first strict minimum in cell order), and those
     placements in index order. *)
  let best_cell () =
    let best = ref (-1) in
    let best_cands = ref [||] in
    let best_n = ref max_int in
    for c = 0 to cells - 1 do
      if (not covered.(c)) && !best_n > 0 then begin
        let cands = Array.of_list (List.filter free (Array.to_list by_cell.(c))) in
        if Array.length cands < !best_n then begin
          best := c;
          best_cands := cands;
          best_n := Array.length cands
        end
      end
    done;
    (!best, !best_cands)
  in
  let found = ref 0 in
  let rec solve chosen =
    if !found < budget then begin
      let best, cands = best_cell () in
      if best < 0 then (if accept (List.rev chosen) then incr found)
      else
        Array.iter
          (fun q ->
            if !found < budget && free q then begin
              mark q true;
              solve (q :: chosen);
              mark q false
            end)
          cands
    end
  in
  solve [];
  !found

(* Every translate of every prototile by a coset representative,
   prototile-major, minus those overlapping themselves on the torus. *)
let torus_placements ~period ~prototiles =
  List.concat
    (List.mapi
       (fun k tile ->
         List.filter_map
           (fun o ->
             let ids =
               List.map (fun n -> Sublattice.coset_id period (Vec.add o n)) (Prototile.cells tile)
             in
             if List.length (List.sort_uniq compare ids) = List.length ids then Some ((k, o), ids)
             else None)
           (Sublattice.cosets period))
       prototiles)
  |> Array.of_list

let torus_cover ~period ~prototiles placements chosen =
  List.mapi
    (fun k tile ->
      let offsets =
        List.filter_map
          (fun q ->
            let (k', o), _ = placements.(q) in
            if k' = k then Some o else None)
          chosen
      in
      { Tiling.Multi.tile; piece_offsets = offsets })
    prototiles
  |> List.filter (fun pc -> pc.Tiling.Multi.piece_offsets <> [])
  |> Tiling.Multi.make_exn ~period

let cover_torus ~period ~prototiles ?(max_solutions = 64) ?(keep = fun _ -> true) () =
  let placements = torus_placements ~period ~prototiles in
  let sols = ref [] in
  let accept chosen =
    let mt = torus_cover ~period ~prototiles placements chosen in
    keep mt
    && begin
         sols := mt :: !sols;
         true
       end
  in
  ignore
    (backtrack ~cells:(Sublattice.index period) ~placements:(Array.map snd placements)
       ~budget:max_solutions ~accept);
  List.rev !sols

let count_torus_covers ~period ~prototiles () =
  let placements = torus_placements ~period ~prototiles in
  backtrack ~cells:(Sublattice.index period) ~placements:(Array.map snd placements)
    ~budget:max_int
    ~accept:(fun _ -> true)

let cover_region ~region ~prototile ?torus ?(max_solutions = 64) ?(keep = fun _ -> true) () =
  let norm = match torus with Some lam -> Sublattice.reduce lam | None -> Fun.id in
  let cells = List.sort_uniq Vec.compare region in
  if cells = [] then invalid_arg "Tiling_oracle.cover_region: empty region";
  let id_of = Hashtbl.create 64 in
  List.iteri
    (fun i v ->
      if Hashtbl.mem id_of (norm v) then
        invalid_arg "Tiling_oracle.cover_region: region cells congruent mod the torus";
      Hashtbl.replace id_of (norm v) i)
    cells;
  let tile = Prototile.cells prototile in
  (* A translate is a candidate when all of its cells are distinct
     region cells. *)
  let footprint t =
    let ids = List.filter_map (fun n -> Hashtbl.find_opt id_of (norm (Vec.add t n))) tile in
    if List.length (List.sort_uniq compare ids) = List.length tile then Some (t, ids) else None
  in
  let placements =
    List.concat_map (fun c -> List.map (fun n -> norm (Vec.sub c n)) tile) cells
    |> List.sort_uniq Vec.compare
    |> List.filter_map footprint
    |> Array.of_list
  in
  let sols = ref [] in
  let accept chosen =
    let ts = List.sort Vec.compare (List.map (fun q -> fst placements.(q)) chosen) in
    keep ts
    && begin
         sols := ts :: !sols;
         true
       end
  in
  ignore
    (backtrack ~cells:(List.length cells) ~placements:(Array.map snd placements)
       ~budget:max_solutions ~accept);
  List.rev !sols
