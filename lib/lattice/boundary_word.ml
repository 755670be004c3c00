open Zgeom

type factorization = { start : int; len1 : int; len2 : int; len3 : int }

let complement = function
  | 'u' -> 'd'
  | 'd' -> 'u'
  | 'l' -> 'r'
  | 'r' -> 'l'
  | c -> invalid_arg (Printf.sprintf "Boundary_word.complement: %c" c)

let hat w =
  let n = String.length w in
  String.init n (fun i -> complement w.[n - 1 - i])

let step_vec = function
  | 'u' -> Vec.make2 0 1
  | 'd' -> Vec.make2 0 (-1)
  | 'l' -> Vec.make2 (-1) 0
  | 'r' -> Vec.make2 1 0
  | c -> invalid_arg (Printf.sprintf "Boundary_word.step_vec: %c" c)

let displacement w =
  String.fold_left (fun acc c -> Vec.add acc (step_vec c)) (Vec.zero 2) w

(* A factor [X] starting at cyclic position [i] with hat copy at [j = i +
   n/2] satisfies, for every position [v] in [i, i + len):
   [w.((c - v) mod n) = complement w.(v)] where the anti-diagonal
   [c = i + j + len - 1] depends only on the factor's endpoints.  We
   precompute, per anti-diagonal, the run length of consecutive positions
   satisfying the predicate, so each candidate factor checks in O(1). *)
let search w keep_len3 =
  let n = String.length w in
  if n = 0 || n mod 2 = 1 then None
  else begin
    let half = n / 2 in
    let runs =
      Array.init n (fun c ->
          let arr = Array.make (2 * n) 0 in
          for v = (2 * n) - 1 downto 0 do
            let vm = v mod n in
            let cm = ((c - vm) mod n + n) mod n in
            if w.[cm] = complement w.[vm] then
              arr.(v) <- (if v = (2 * n) - 1 then 1 else min n (arr.(v + 1) + 1))
          done;
          arr)
    in
    let factor_ok s len =
      len = 0
      ||
      let c = ((2 * s) + len + half - 1) mod n in
      runs.(c).(s) >= len
    in
    let found = ref None in
    (try
       for start = 0 to half - 1 do
         for len1 = 1 to half - 1 do
           if factor_ok start len1 then
             for len2 = 1 to half - len1 do
               let len3 = half - len1 - len2 in
               if keep_len3 len3
                  && factor_ok (start + len1) len2
                  && factor_ok (start + len1 + len2) len3
               then begin
                 found := Some { start; len1; len2; len3 };
                 raise Exit
               end
             done
         done
       done
     with Exit -> ());
    !found
  end

let find_factorization w = search w (fun _ -> true)

(* Reference implementation: check each candidate factor against its hat
   copy character by character. *)
let find_factorization_naive w =
  let n = String.length w in
  if n = 0 || n mod 2 = 1 then None
  else begin
    let half = n / 2 in
    let at i = w.[((i mod n) + n) mod n] in
    (* Factor [s, s+len) matches hat at [s + half, s + half + len). *)
    let factor_ok s len =
      let ok = ref true in
      for t = 0 to len - 1 do
        if at (s + half + t) <> complement (at (s + len - 1 - t)) then ok := false
      done;
      !ok
    in
    let found = ref None in
    (try
       for start = 0 to half - 1 do
         for len1 = 1 to half - 1 do
           if factor_ok start len1 then
             for len2 = 1 to half - len1 do
               let len3 = half - len1 - len2 in
               if factor_ok (start + len1) len2 && factor_ok (start + len1 + len2) len3 then begin
                 found := Some { start; len1; len2; len3 };
                 raise Exit
               end
             done
         done
       done
     with Exit -> ());
    !found
  end
let is_pseudo_square w = search w (fun l3 -> l3 = 0) <> None
let is_pseudo_hexagon w = search w (fun l3 -> l3 > 0) <> None

let cyclic_sub w s len =
  let n = String.length w in
  String.init len (fun i -> w.[(s + i) mod n])

let factor_words w f =
  ( cyclic_sub w f.start f.len1,
    cyclic_sub w (f.start + f.len1) f.len2,
    cyclic_sub w (f.start + f.len1 + f.len2) f.len3 )

let translation_vectors w f =
  let x1, x2, x3 = factor_words w f in
  let d1 = displacement x1 and d2 = displacement x2 and d3 = displacement x3 in
  (Vec.add d1 d2, Vec.add d2 d3)

type refutation = Hole | Unfactorizable of string

type classification =
  | Not_applicable
  | Refuted of refutation
  | Factorized of { word : string; factorization : factorization }

(* A tile with a hole (first at area 7) never tiles by translations: a
   translate covering a hole cell must be disjoint from the enclosing
   tile, so, being 4-connected, it lies entirely inside the hole - but
   the tile's bounding box strictly contains its own hole's, so it
   cannot fit. *)
let classify p =
  if Prototile.dim p <> 2 || not (Polyomino.is_connected p) then Not_applicable
  else if Polyomino.has_holes p then Refuted Hole
  else
    let word = Polyomino.boundary_word p in
    match find_factorization word with
    | None -> Refuted (Unfactorizable word)
    | Some factorization -> Factorized { word; factorization }

let is_exact_polyomino p =
  assert (Polyomino.is_polyomino p);
  match classify p with Factorized _ -> true | Not_applicable | Refuted _ -> false
