(* Latency histograms and order statistics.

   [Hist] is a log-linear histogram over non-negative integers (ns):
   exact below 128, then 64 sub-buckets per power of two, so a bucket
   is at most 1/64 of its value wide.  Recording is allocation-free,
   which matters inside the load generator's event loop. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

module Hist = struct
  type t = {
    counts : int array;
    mutable n : int;
    mutable min : int;
    mutable max : int;
  }

  let buckets = 128 + (64 * 64)

  let create () = { counts = Array.make buckets 0; n = 0; min = max_int; max = 0 }

  let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1)

  let index v =
    if v < 128 then v
    else
      let e = log2 v 0 - 6 in
      128 + ((e - 1) * 64) + ((v lsr e) - 64)

  (* Lowest and highest value mapping to bucket [i]. *)
  let bounds i =
    if i < 128 then (i, i)
    else
      let e = ((i - 128) / 64) + 1 in
      let m = ((i - 128) mod 64) + 64 in
      (m lsl e, ((m + 1) lsl e) - 1)

  let record t v =
    let v = if v < 0 then 0 else v in
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v

  let count t = t.n

  let merge_into ~dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n;
    if src.min < dst.min then dst.min <- src.min;
    if src.max > dst.max then dst.max <- src.max

  (* Nearest-rank percentile: the bucket holding the ceil(p/100 * n)-th
     smallest sample, reported at its midpoint clamped to the observed
     range.  0 on an empty histogram. *)
  let percentile t p =
    if t.n = 0 then 0.
    else begin
      let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.n))) in
      let rec go i acc =
        let acc = acc + t.counts.(i) in
        if acc >= rank || i = buckets - 1 then i else go (i + 1) acc
      in
      let lo, hi = bounds (go 0 0) in
      let mid = (float_of_int lo +. float_of_int hi) /. 2. in
      Float.min (float_of_int t.max) (Float.max (float_of_int t.min) mid)
    end

end

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
  end
