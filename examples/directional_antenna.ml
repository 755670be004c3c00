(* Directional antennas (Figures 2 and 3 of the paper).

   A sensor with a directional antenna interferes with an asymmetric
   neighborhood - here the 2x4 block radiating up-right from the sensor.
   The example reproduces Figure 3: the tiling of the lattice by the
   8-cell prototile, the 8-slot schedule, and the observation that the
   sensors of any fixed slot have neighborhoods that again tile the
   lattice (a shifted copy of the original tiling).

   Run with: dune exec examples/directional_antenna.exe *)

open Zgeom
open Lattice

let () =
  let n = Prototile.directional in
  Printf.printf "Directional neighborhood (sensor at 'O'):\n%s\n\n" (Render.Ascii.prototile n);

  let tiling =
    match Tiling.Search.find_lattice_tiling n with
    | Some t -> t
    | None -> failwith "the 2x4 block tiles Z^2"
  in
  let schedule = Core.Schedule.of_tiling tiling in

  Printf.printf "Tiling (letters = tiles) and schedule (digits = slots):\n\n%s\n\n%s\n\n"
    (Render.Ascii.tiling tiling ~width:12 ~height:10)
    (Render.Ascii.schedule schedule ~width:12 ~height:10);

  assert (Core.Collision.is_collision_free_theorem1 tiling schedule);
  Printf.printf "collision-free with m = %d slots (optimal).\n\n" (Core.Schedule.num_slots schedule);

  (* Figure 3, right: for each slot k, the neighborhoods of the sensors
     broadcasting at slot k tile the lattice - verify by checking their
     ranges partition a large window (up to boundary). *)
  let period = Tiling.Single.period tiling in
  let slot_senders k =
    (* Senders with slot k in a window with margin. *)
    let out = ref [] in
    for x = -12 to 24 do
      for y = -12 to 24 do
        let v = Vec.make2 x y in
        if Core.Schedule.slot_at schedule v = k then out := v :: !out
      done
    done;
    !out
  in
  let all_slots_tile =
    List.for_all
      (fun k ->
        let covered = Hashtbl.create 256 in
        List.iter
          (fun s ->
            Vec.Set.iter
              (fun w ->
                Hashtbl.replace covered w (1 + Option.value ~default:0 (Hashtbl.find_opt covered w)))
              (Prototile.translate s n))
          (slot_senders k);
        (* Inner window fully covered exactly once. *)
        let ok = ref true in
        for x = 0 to 11 do
          for y = 0 to 11 do
            if Option.value ~default:0 (Hashtbl.find_opt covered (Vec.make2 x y)) <> 1 then
              ok := false
          done
        done;
        !ok)
      (List.init (Core.Schedule.num_slots schedule) Fun.id)
  in
  Printf.printf "each slot's sender neighborhoods tile the lattice: %b\n" all_slots_tile;
  assert all_slots_tile;

  (* Rotated antennas: each rotation is also exact (BN certificate). *)
  Printf.printf "\nexactness of the four antenna orientations:\n";
  List.iteri
    (fun i r ->
      let verdict =
        match Boundary_word.classify r with
        | Factorized _ -> "exact"
        | Refuted _ -> "not exact"
        | Not_applicable -> "not a polyomino"
      in
      Printf.printf "  rotation %d: %s (m = %d)\n" (i * 90) verdict (Prototile.size r))
    (Prototile.rotations n);
  ignore period
