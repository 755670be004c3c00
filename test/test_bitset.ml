(* Property tests for the bitset underneath the exact-cover kernel:
   every operation is checked against a naive Set.Make(Int) model, with
   widths straddling the word boundary (Sys.int_size = 63, so 62/63/64
   and 125/126/127 are the edges). *)

module B = Tiling.Bitset
module IS = Set.Make (Int)

(* Widths that exercise 0, 1 and 2+ words and both sides of each word
   boundary. *)
let widths = [ 0; 1; 2; 7; 62; 63; 64; 65; 125; 126; 127; 200 ]

(* Membership as read off the raw words: bit [i mod int_size] of word
   [i / int_size], the layout the kernel's fused loops rely on. *)
let word_mem b i =
  (B.unsafe_words b).(i / Sys.int_size) land (1 lsl (i mod Sys.int_size)) <> 0

let check_against_model name ~n b model =
  Alcotest.(check (list int)) (name ^ ": to_list = model elements") (IS.elements model)
    (B.to_list b);
  Alcotest.(check int) (name ^ ": popcount = cardinal") (IS.cardinal model) (B.popcount b);
  Alcotest.(check int)
    (name ^ ": word count")
    ((n + Sys.int_size - 1) / Sys.int_size)
    (Array.length (B.unsafe_words b));
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "%s: word bit %d" name i) (IS.mem i model) (word_mem b i);
    Alcotest.(check bool)
      (Printf.sprintf "%s: mem %d" name i)
      (IS.mem i model) (B.mem b i)
  done

let test_create_full_boundaries () =
  List.iter
    (fun n ->
      let empty = B.create n in
      let all = B.full n in
      check_against_model ~n (Printf.sprintf "create %d" n) empty IS.empty;
      check_against_model ~n (Printf.sprintf "full %d" n) all (IS.of_list (List.init n Fun.id));
      (* full must agree with set one bit at a time. *)
      let b = B.create n in
      for i = 0 to n - 1 do
        B.set b i
      done;
      Alcotest.(check bool)
        (Printf.sprintf "set all = full %d" n)
        true
        (B.unsafe_words b = B.unsafe_words all);
      if n > 0 then begin
        let b = B.create n in
        B.set b 0;
        B.set b (n - 1);
        check_against_model ~n "set edges" b (IS.of_list [ 0; n - 1 ])
      end)
    widths

let test_out_of_range_rejected () =
  let b = B.create 10 in
  List.iter
    (fun i ->
      match B.mem b i with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "mem %d should raise" i))
    [ -1; 10; 63 ];
  (match B.set b 10 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set out of range should raise");
  match B.create (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative width should raise"

let test_iter_ascending () =
  List.iter
    (fun n ->
      let b = B.full n in
      let seen = ref [] in
      B.iter (fun i -> seen := i :: !seen) b;
      Alcotest.(check (list int))
        (Printf.sprintf "iter ascending, width %d" n)
        (List.init n Fun.id) (List.rev !seen))
    widths

(* Random subset of [0, n) driven by a QCheck-drawn seed: one Splitmix64
   stream decides width, membership and operation order, so failures
   replay from a single integer. *)
let qcheck_ops_match_set_model =
  let gen = QCheck.Gen.int_bound 1_000_000 in
  let arb = QCheck.make ~print:string_of_int gen in
  QCheck.Test.make ~name:"bitset ops = Set.Make(Int) model" ~count:200 arb (fun seed ->
      let sm = Prng.Splitmix64.create (Int64.of_int seed) in
      let draw bound =
        Int64.to_int (Int64.unsigned_rem (Prng.Splitmix64.next sm) (Int64.of_int bound))
      in
      let n = 1 + draw 200 in
      let members = List.filter (fun _ -> draw 3 = 0) (List.init n Fun.id) in
      let model = IS.of_list members in
      (* Built by [set] in random order, duplicates included. *)
      let b = B.create n in
      List.iter (B.set b) (List.rev_append members (List.filter (fun _ -> draw 2 = 0) members));
      let top_bits_clear =
        let words = B.unsafe_words b in
        let used = n - ((Array.length words - 1) * Sys.int_size) in
        used = Sys.int_size || words.(Array.length words - 1) lsr used = 0
      in
      B.to_list b = IS.elements model
      && B.popcount b = IS.cardinal model
      && List.for_all (fun i -> B.mem b i = IS.mem i model && word_mem b i = B.mem b i)
           (List.init n Fun.id)
      && top_bits_clear
      && begin
           (* set is idempotent and adds exactly one member. *)
           let i = draw n in
           B.set b i;
           B.set b i;
           B.to_list b = IS.elements (IS.add i model)
         end)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "bitset"
    [
      ( "bitset",
        [
          Alcotest.test_case "create/full at word boundaries" `Quick test_create_full_boundaries;
          Alcotest.test_case "out of range rejected" `Quick test_out_of_range_rejected;
          Alcotest.test_case "iter ascending" `Quick test_iter_ascending;
          qc qcheck_ops_match_set_model;
        ] );
    ]
