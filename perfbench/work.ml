(* Workload definitions: the fixed per-workload settings, the seeded
   request catalogues and streams, and the reply oracle.

   A catalogue is the set of distinct requests a run may send; a
   stream is a sequence of catalogue indices.  Both are pure functions
   of (workload, seed), built before any clock starts. *)

open Lattice
module Protocol = Server.Protocol
module X = Prng.Xoshiro

type spec = {
  name : string;
  dialect : Gen.dialect;
  low_rps : float;  (** open-loop low offered rate *)
  high_rps : float;  (** open-loop high offered rate *)
  ladder : float list;  (** rates probed for [slo_rps], ascending *)
  limit_us : float;  (** latency limit on the tail percentile *)
  tail_pct : float;  (** the tail percentile reported as [tail_us] *)
  window : int;  (** closed-loop requests in flight per connection *)
}

(* Rates sit well below each workload's open-loop capacity on the
   reference host (2 vCPU VM, daemon at -j 1): that host's capacity
   swings by 2x between quiet and contended periods, and a ladder step
   past capacity draws [overloaded] replies, which count as failures.  The
   tail is p90: on that host an idle thread's timer wake-ups are late by
   more than 1 ms one time in a hundred, so p99 measures the hypervisor,
   not the daemon. *)
let specs =
  [ { name = "hot_hits"; dialect = Gen.Binary; low_rps = 5_000.; high_rps = 15_000.;
      ladder = [ 5_000.; 10_000.; 15_000.; 20_000.; 25_000. ]; limit_us = 2_000.; tail_pct = 90.;
      window = 1024 };
    { name = "engine_mix"; dialect = Gen.Text; low_rps = 2_000.; high_rps = 5_000.;
      ladder = [ 2_000.; 3_500.; 5_000.; 6_500. ]; limit_us = 10_000.; tail_pct = 90.; window = 16 };
    { name = "search_store"; dialect = Gen.Binary; low_rps = 200.; high_rps = 500.;
      ladder = [ 200.; 350.; 500.; 650. ]; limit_us = 100_000.; tail_pct = 90.; window = 8 } ]

(* p99 generator lag (actual minus scheduled send) beyond which a run
   is void rather than slow. *)
let lag_bound_us = 25_000.

let find_spec name = List.find_opt (fun s -> s.name = name) specs

(* Phase lengths as shares of --seconds. *)
let tp_share = 0.7
let low_share = 0.1
let high_share = 0.1
let ladder_share = 0.1

(* ---------- tiles ---------- *)

let rng ~seed ~salt = X.create (Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L) (Int64.of_int salt))

let canonical_classes max_area =
  let acc = ref [] in
  Polyomino.enumerate_free_iter ~max_area (fun ~area:_ t -> acc := Symmetry.canonical t :: !acc);
  Array.of_list (List.rev !acc)

(* A random congruent copy of [tile] that differs from its canonical
   cell list when any orientation does. *)
let reorient rng tile =
  let canon = Symmetry.canonical tile in
  let els = Array.of_list Symmetry.elements in
  let image g = Prototile.of_cells_anchored (List.map (Symmetry.apply g) (Prototile.cells tile)) in
  let rec go tries =
    let t = image (X.pick rng els) in
    if tries = 0 || not (Prototile.equal t canon) then t else go (tries - 1)
  in
  if Prototile.dim tile <> 2 then tile else go 16

let random_pos rng dim = Zgeom.Vec.of_list (List.init dim (fun _ -> X.int rng 2001 - 1000))

(* Zipf(s) over ranks 0..n-1 via the inverse CDF. *)
let zipf_sampler ~s n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun u ->
    let u = u *. total in
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then bisect lo mid else bisect (mid + 1) hi
    in
    bisect 0 (n - 1)

(* ---------- catalogues ---------- *)

type plan = {
  requests : Protocol.request array;  (** distinct requests *)
  stream : int array;  (** catalogue indices; phases take slices *)
  warm : int array;  (** warm-up stream, run before timing *)
  wrap : bool;  (** phases may cycle the stream (false: a slice is consumed once) *)
}

let stream_len = 1 lsl 18

(* hot_hits: canonical tile-search, Zipf over every class. *)
let plan_hot_hits ~seed ~classes =
  let r = rng ~seed ~salt:1 in
  let n = Array.length classes in
  let perm = Array.init n Fun.id in
  X.shuffle r perm;
  let sample = zipf_sampler ~s:1.1 n in
  let requests = Array.map (fun t -> Protocol.Tile_search t) classes in
  let stream = Array.init stream_len (fun _ -> perm.(sample (X.float r 1.))) in
  { requests; stream; warm = Array.init n Fun.id; wrap = true }

let off_corpus r =
  [ Prototile.chebyshev_ball ~dim:2 2; Prototile.chebyshev_ball ~dim:3 1;
    Randomtile.sparse r ~cells:6 ~spread:3; Randomtile.sparse r ~cells:5 ~spread:3;
    Randomtile.sparse r ~cells:4 ~spread:2 ]

(* engine_mix: 80/15/5 slot/schedule/tile-search over non-canonical
   orientations, plus a few prototiles outside the corpus. *)
let plan_engine_mix ~seed ~classes =
  let r = rng ~seed ~salt:2 in
  let extra = Array.of_list (off_corpus r) in
  let d = 4096 in
  let requests =
    Array.init d (fun i ->
        let tile =
          if i mod 32 = 31 then extra.(i / 32 mod Array.length extra)
          else reorient r (X.pick r classes)
        in
        let u = X.int r 100 in
        if u < 80 then Protocol.Slot { tile; pos = random_pos r (Prototile.dim tile) }
        else if u < 95 then Protocol.Schedule tile
        else Protocol.Tile_search tile)
  in
  let stream = Array.init stream_len (fun _ -> X.int r d) in
  { requests; stream; warm = Array.init d Fun.id; wrap = true }

(* search_store: a settled part (area 8-9 polyominoes, which the seeded
   store holds, plus 10 % sparse tiles settled during warm-up) and a
   fresh part of area 10-11 polyominoes, each first requested once in
   stream order so that a steady [fresh_share] of requests runs the
   exact-cover search; another 10 % revisit earlier fresh tiles (LRU or
   store hits).  Fresh tiles come at evenly spaced positions and
   alternate between areas 10 and 11, so that every window of the
   stream holds the same number of searches of each area: the run's
   CPU per request then varies with the tiles' shapes only. *)
let fresh_share = 0.03
let revisit_share = 0.10

let plan_search_store ~seed ~total =
  let r = rng ~seed ~salt:3 in
  let settled =
    Array.init 2048 (fun i ->
        if i mod 10 = 9 then Randomtile.sparse r ~cells:(5 + X.int r 2) ~spread:3
        else reorient r (Randomtile.polyomino r ~cells:(8 + X.int r 2)))
  in
  let n_fresh = int_of_float (float_of_int total *. fresh_share) + 1 in
  let seen = Hashtbl.create 1024 in
  let fresh = ref [] and count = ref 0 in
  while !count < n_fresh do
    let t = reorient r (Randomtile.polyomino r ~cells:(10 + (!count mod 2))) in
    let key = Server.canonical_key t in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      fresh := t :: !fresh;
      incr count
    end
  done;
  let fresh = Array.of_list (List.rev !fresh) in
  let ns = Array.length settled in
  let requests = Array.map (fun t -> Protocol.Tile_search t) (Array.append settled fresh) in
  let introduced = ref 0 in
  let fresh_at k = int_of_float (float_of_int (k + 1) *. fresh_share) > int_of_float (float_of_int k *. fresh_share) in
  let stream =
    Array.init total (fun k ->
        if fresh_at k && !introduced < Array.length fresh then begin
          incr introduced;
          ns + !introduced - 1
        end
        else if X.float r 1. < revisit_share && !introduced > 0 then ns + X.int r !introduced
        else X.int r ns)
  in
  let warm = Array.init ns Fun.id in
  { requests; stream; warm; wrap = false }

(* ---------- oracle ---------- *)

let strip_source : Protocol.response -> Protocol.response = function
  | Slot_r r -> Slot_r { r with source = None }
  | Schedule_r r -> Schedule_r { r with source = None }
  | Tiling_r r -> Tiling_r { r with source = None }
  | Tiling_raw_r r -> Tiling_raw_r { r with source = None }
  | No_tiling _ -> No_tiling None
  | r -> r

let has_source (r : Protocol.response) =
  match r with Slot_r _ | Schedule_r _ | Tiling_r _ | Tiling_raw_r _ | No_tiling _ -> true | _ -> false

let request_tile : Protocol.request -> Prototile.t option = function
  | Slot { tile; _ } | Schedule tile | Tile_search tile -> Some tile
  | Stats | Shutdown -> None

(* Independent checks of one expected reply: Theorem 1's slot count,
   a revalidated tiling with a passing certificate, and agreement with
   the Beauquier-Nivat criterion for polyominoes. *)
let validate (req : Protocol.request) (resp : Protocol.response) =
  let ( let* ) = Result.bind in
  let tile = Option.get (request_tile req) in
  let size = Prototile.size tile in
  let bn () =
    if Prototile.dim tile = 2 && Polyomino.is_polyomino tile then
      Some (Boundary_word.find_factorization (Polyomino.boundary_word tile) <> None)
    else None
  in
  let exact_ok () =
    match bn () with Some false -> Error "tiling for a tile BN rejects" | _ -> Ok ()
  in
  let check_fragment frag =
    let* tl = Protocol.tiling_of_fragment frag in
    let* () =
      if Prototile.equal (Tiling.Single.prototile tl) tile then Ok ()
      else Error "tiling of a different prototile"
    in
    match Core.Certificate.check (Core.Certificate.build tl) with
    | Ok () -> Ok ()
    | Error f -> Error (Format.asprintf "certificate: %a" Core.Certificate.pp_failure f)
  in
  match (req, resp) with
  | Slot _, Slot_r { slot; num_slots; _ } ->
    let* () = if num_slots = size then Ok () else Error "num_slots <> |N|" in
    let* () = if 0 <= slot && slot < num_slots then Ok () else Error "slot out of range" in
    exact_ok ()
  | Schedule _, Schedule_r { schedule; _ } ->
    let* () = if Core.Schedule.num_slots schedule = size then Ok () else Error "num_slots <> |N|" in
    exact_ok ()
  | Tile_search _, Tiling_r { tiling; _ } ->
    let* () = check_fragment (Protocol.tiling_fragment tiling) in
    exact_ok ()
  | Tile_search _, Tiling_raw_r { tiling_fields; _ } ->
    let* () = check_fragment tiling_fields in
    exact_ok ()
  | (Slot _ | Schedule _ | Tile_search _), No_tiling _ -> (
    match bn () with Some true -> Error "no tiling for a tile BN accepts" | _ -> Ok ())
  | _, r -> Error ("unexpected reply " ^ Protocol.response_to_string r)

(* Expected replies from an in-process engine over the same corpus or
   store, each validated independently. *)
let oracle ?corpus ?store ~dialect requests =
  let pool = Parallel.create ~jobs:2 in
  let engine =
    Server.create ~cache_capacity:(Array.length requests + 1) ~queue_bound:max_int ~pool ?store ?corpus ()
  in
  let resps = Array.of_list (Server.handle_batch engine (Array.to_list requests)) in
  Parallel.shutdown pool;
  let errors = ref [] in
  Array.iteri
    (fun i resp ->
      match validate requests.(i) resp with
      | Ok () -> ()
      | Error e -> errors := Printf.sprintf "request %d: %s" i e :: !errors)
    resps;
  let encode_req req =
    match (dialect : Gen.dialect) with
    | Binary -> Server.Wire.encode_request req
    | Text -> Protocol.request_to_string req ^ "\n"
  in
  let expected resp =
    match (dialect : Gen.dialect) with
    | Binary -> Server.Wire.encode_response resp
    | Text -> Protocol.response_to_string (strip_source resp)
  in
  ( { Gen.dialect; reqs = Array.map encode_req requests; expected = Array.map expected resps;
      has_src = Array.map has_source resps },
    resps,
    List.rev !errors )

(* MD5 over the encoded catalogue and every stream, in order: the
   request-stream digest the seeding test compares. *)
let digest (plan : plan) =
  let b = Buffer.create (1 lsl 20) in
  Array.iter (fun r -> Buffer.add_string b (Server.Wire.encode_request r)) plan.requests;
  let int i = Buffer.add_string b (string_of_int i); Buffer.add_char b ',' in
  Array.iter int plan.warm;
  Array.iter int plan.stream;
  Digest.to_hex (Digest.string (Buffer.contents b))
