open Lattice

(* The campaign driver: stream the free-polyomino bands, decide each
   tile with the Beauquier-Nivat filter (searching only when the filter
   admits it), append the verdicts to sharded segments, and checkpoint
   after every band so a killed campaign resumes exactly where the last
   fsync left it. *)

type verdict =
  | Non_exact
  | Exact of { tiling : Tiling.Single.t; certificate : Core.Certificate.t }

(* [Boundary_word.classify] is a complete decision procedure for
   polyominoes, holes included: a refuted tile has no translation tiling
   at all.  When a factorization exists, Wijshoff-van Leeuwen guarantees
   a lattice tiling, and the BN translation vectors name one - validating
   them through [Single.make] is the polynomial fast path that keeps the
   exact-cover engine off this road entirely.  The search fallback can
   only fire if the fast path's vectors were wrong, i.e. on a bug. *)
let decide tile =
  match Boundary_word.classify tile with
  | Not_applicable -> invalid_arg "Corpus.Campaign.decide: not a 4-connected 2-D tile"
  | Refuted _ -> Non_exact
  | Factorized { word; factorization } ->
    let v1, v2 = Boundary_word.translation_vectors word factorization in
    let tiling =
      match
        Tiling.Single.make ~prototile:tile ~period:(Sublattice.of_rows [ v1; v2 ])
          ~offsets:[ Zgeom.Vec.zero 2 ]
      with
      | Ok t -> t
      | Error _ -> (
        match Tiling.Search.find_tiling tile with
        | Some t -> t
        | None ->
          invalid_arg
            ("Corpus.Campaign.decide: BN factorization found but no tiling exists for key "
            ^ Core.Verdict.key tile))
    in
    Exact { tiling; certificate = Core.Certificate.build tiling }

let payload_of_verdict = function
  | Non_exact -> ""
  | Exact { tiling; certificate } -> Core.Verdict.body_to_string tiling certificate

type report = {
  dir : string;
  shards : int;
  max_n : int;
  skipped_bands : int;
  bands : Layout.band list;
}

(* ---------- fd-level file helpers ----------

   The writers use raw file descriptors, not buffered channels: a
   buffered channel flushes whatever it holds from [at_exit] (or a GC
   finalizer), which after a mid-band crash would append bytes BEHIND
   the recovery truncation and corrupt the very state the checkpoint
   protocol protects.  With [Unix.write] every published byte is either
   fully before the kill point or absent. *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write fd b !pos (n - !pos)
  done

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Atomic replace with the store's fsync-then-rename discipline: the
   rename may only publish blocks already forced to disk. *)
let write_file_atomic path contents =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd contents;
      Unix.fsync fd);
  Sys.rename tmp path

let seg_path dir s = Filename.concat dir (Layout.segment_name s)
let idx_path dir s = Filename.concat dir (Layout.index_name s)
let manifest_path dir = Filename.concat dir Layout.manifest_name

let write_manifest dir m = write_file_atomic (manifest_path dir) (Layout.manifest_to_string m)

(* ---------- sealing: build the per-shard index files ---------- *)

let seal_shard dir s =
  let data = read_file (seg_path dir s) in
  match
    Layout.fold_records data ~init:[] ~f:(fun acc ~off ~band:_ ~tag:_ ~key ~payload:_ ->
        (Layout.hash_key key, off) :: acc)
  with
  | Error e -> Error (Printf.sprintf "%s: %s" (Layout.segment_name s) e)
  | Ok entries ->
    let entries = List.sort compare entries in
    let count = List.length entries in
    let b = Bytes.create (Layout.magic_len + 8 + (count * Layout.idx_entry_size)) in
    Bytes.blit_string Layout.idx_magic 0 b 0 Layout.magic_len;
    Layout.put_u64 b Layout.magic_len count;
    List.iteri
      (fun i (hash, off) ->
        let at = Layout.magic_len + 8 + (i * Layout.idx_entry_size) in
        Layout.put_u64 b at hash;
        Layout.put_u64 b (at + 8) off)
      entries;
    write_file_atomic (idx_path dir s) (Bytes.unsafe_to_string b);
    Ok ()

let seal dir m =
  let ( let* ) = Result.bind in
  let rec go s = if s = m.Layout.shards then Ok () else let* () = seal_shard dir s in go (s + 1) in
  let* () = go 0 in
  write_manifest dir { m with Layout.sealed = true };
  Ok { m with Layout.sealed = true }

(* ---------- crash repair ---------- *)

(* Bring every segment back to the last checkpoint: create missing
   files, cut bytes past the manifest-recorded length (a killed band's
   partial appends), and reject files that are somehow too short. *)
let repair_segments dir m =
  let lens = Layout.shard_lengths m in
  let ( let* ) = Result.bind in
  let rec go s =
    if s = m.Layout.shards then Ok ()
    else
      let path = seg_path dir s in
      let* () =
        if not (Sys.file_exists path) then
          if lens.(s) > Layout.magic_len then
            Error (Printf.sprintf "%s: missing segment (manifest expects %d bytes)"
                     (Layout.segment_name s) lens.(s))
          else begin
            write_file_atomic path Layout.seg_magic;
            Ok ()
          end
        else
          let size = (Unix.stat path).Unix.st_size in
          if size < lens.(s) then
            Error (Printf.sprintf "%s: segment shorter than manifest (%d < %d bytes)"
                     (Layout.segment_name s) size lens.(s))
          else begin
            if size > lens.(s) then Unix.truncate path lens.(s);
            Ok ()
          end
      in
      go (s + 1)
  in
  go 0

(* ---------- the campaign proper ---------- *)

let append_band dir m ~pool ~progress ~n tiles =
  let shards = m.Layout.shards in
  let verdicts = Parallel.map pool (fun tile -> (Core.Verdict.key tile, decide tile)) tiles in
  let lens = Layout.shard_lengths m in
  let exact = ref 0 and non_exact = ref 0 in
  let total = List.length verdicts in
  let fds =
    Array.init shards (fun s ->
        Unix.openfile (seg_path dir s) [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644)
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Unix.close fds)
    (fun () ->
      List.iteri
        (fun i (key, verdict) ->
          let tag =
            match verdict with
            | Non_exact ->
              incr non_exact;
              Layout.tag_non_exact
            | Exact _ ->
              incr exact;
              Layout.tag_exact
          in
          let record =
            Layout.encode_record ~band:n ~tag ~key ~payload:(payload_of_verdict verdict)
          in
          let s = Layout.shard_of_key ~shards key in
          write_all fds.(s) record;
          lens.(s) <- lens.(s) + String.length record;
          progress ~n ~done_:(i + 1) ~total)
        verdicts;
      Array.iter Unix.fsync fds);
  let band =
    { Layout.n; classes = total; exact = !exact; non_exact = !non_exact; lens }
  in
  let m = { m with Layout.bands = m.Layout.bands @ [ band ] } in
  write_manifest dir m;
  m

(* Segment shards of a new corpus; a resumed one keeps its manifest's. *)
let new_corpus_shards = 8

let run ?pool ?(progress = fun ~n:_ ~done_:_ ~total:_ -> ()) ~dir ~max_n () =
  let ( let* ) = Result.bind in
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  let* () =
    if max_n < 1 || max_n > 255 then Error "Campaign.run: max_n must be in 1..255" else Ok ()
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let* m =
    let path = manifest_path dir in
    if Sys.file_exists path then Layout.manifest_of_string (read_file path)
    else Ok { Layout.shards = new_corpus_shards; sealed = false; bands = [] }
  in
  let* () = repair_segments dir m in
  let completed = Layout.completed m in
  let skipped_bands = min completed max_n in
  let* m =
    if completed >= max_n then Ok m
    else begin
      (* Growing past a sealed corpus: drop the seal first, so a crash
         during the new bands can never leave stale indexes looking
         authoritative. *)
      let m = { m with Layout.sealed = false } in
      write_manifest dir m;
      let state = ref m in
      let buf = ref [] and cur = ref 1 in
      let flush_band () =
        let n = !cur in
        if n > completed then
          state := append_band dir !state ~pool ~progress ~n (List.rev !buf);
        buf := []
      in
      Polyomino.enumerate_free_iter ~max_area:max_n (fun ~area tile ->
          if area <> !cur then begin
            flush_band ();
            cur := area
          end;
          if area > completed then buf := tile :: !buf);
      flush_band ();
      Ok !state
    end
  in
  let* m = if m.Layout.sealed then Ok m else seal dir m in
  Ok { dir; shards = m.Layout.shards; max_n; skipped_bands; bands = m.Layout.bands }

let pp_report fmt r =
  Format.fprintf fmt "corpus %s: shards=%d sealed=true bands=%d" r.dir r.shards
    (List.length r.bands);
  if r.skipped_bands > 0 then
    Format.fprintf fmt " (resumed: %d band%s already checkpointed)" r.skipped_bands
      (if r.skipped_bands = 1 then "" else "s");
  Layout.pp_bands fmt r.bands
