type t = { n : int; w : int array }

let bpw = Sys.int_size

let nwords n = if n = 0 then 0 else ((n - 1) / bpw) + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative width";
  { n; w = Array.make (nwords n) 0 }

(* Mask of the bits the last word actually uses; keeping the unused top
   bits zero is the representation invariant everything else relies on. *)
let last_mask n = match n mod bpw with 0 -> -1 | r -> (1 lsl r) - 1

let full n =
  let t = create n in
  let k = Array.length t.w in
  if k > 0 then begin
    Array.fill t.w 0 k (-1);
    t.w.(k - 1) <- t.w.(k - 1) land last_mask n
  end;
  t

let check t i op = if i < 0 || i >= t.n then invalid_arg ("Bitset." ^ op ^ ": out of range")

let set t i =
  check t i "set";
  t.w.(i / bpw) <- t.w.(i / bpw) lor (1 lsl (i mod bpw))

let mem t i =
  check t i "mem";
  t.w.(i / bpw) land (1 lsl (i mod bpw)) <> 0

(* SWAR popcount.  OCaml ints are 63 bits and literals above [max_int]
   are rejected, so the top bit is counted separately and the classic
   64-bit constants are trimmed to the 62 remaining bits (bytewise sums
   stay under 128, so the multiply-extract loses no carries). *)
let popcount_word x =
  let top = x lsr 62 in
  let x = x land 0x3FFFFFFFFFFFFFFF in
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  top + ((x * 0x0101010101010101) lsr 56)

let popcount t =
  let acc = ref 0 in
  for i = 0 to Array.length t.w - 1 do
    acc := !acc + popcount_word t.w.(i)
  done;
  !acc

let iter f t =
  for i = 0 to Array.length t.w - 1 do
    let base = i * bpw in
    let w = ref t.w.(i) in
    while !w <> 0 do
      let low = !w land - !w in
      f (base + popcount_word (low - 1));
      w := !w land (!w - 1)
    done
  done

let unsafe_words t = t.w

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc
