type entry =
  | Found of { tiling : Tiling.Single.t; certificate : Core.Certificate.t }
  | No_tiling

type recovery = {
  live : int;
  records : int;
  dropped : int;
  truncated_bytes : int;
}

type t = {
  path : string;
  table : (string, entry) Hashtbl.t;
  mutable out : out_channel option;  (* None once closed *)
  mutable frames : int;  (* CRC-valid frames in the file, live or not *)
  mutable compactions : int;
  recovery : recovery;
}

let magic = "TSTORE1\n"
let magic_len = String.length magic

(* A payload is a handful of text lines; anything bigger than this is a
   corrupt length field, not a record. *)
let max_payload = 1 lsl 24

(* ---------- payload codec ---------- *)

let key_of_prototile = Core.Verdict.key

let encode_payload key entry =
  let header status = Core.Codec.encode_record ~kind:"store" [ ("key", key); ("status", status) ] in
  match entry with
  | No_tiling -> header "no-tiling"
  | Found { tiling; certificate } ->
    header "found" ^ "\n" ^ Core.Verdict.body_to_string tiling certificate

(* Semantic validation of a CRC-valid payload.  Nothing read from disk
   is trusted: the tiling is revalidated by the body codec (which goes
   through [Single.make]), the key must be the canonical key of the
   stored tiling ([Verdict.check_key]), and the certificate is re-proved
   by [Certificate.check]. *)
let decode_payload payload =
  let ( let* ) = Result.bind in
  let header, body =
    match String.index_opt payload '\n' with
    | None -> (payload, None)
    | Some i ->
      (String.sub payload 0 i, Some (String.sub payload (i + 1) (String.length payload - i - 1)))
  in
  let* kvs = Core.Codec.decode_record ~kind:"store" header in
  let* key = Core.Codec.field kvs "key" in
  let* status = Core.Codec.field kvs "status" in
  if key = "" then Error "empty key"
  else
    match (status, body) with
    | "no-tiling", None -> Ok (key, No_tiling)
    | "found", Some body -> (
      let* tiling, certificate = Core.Verdict.body_of_string body in
      let* () = Core.Verdict.check_key ~key tiling certificate in
      match Core.Certificate.check certificate with
      | Ok () -> Ok (key, Found { tiling; certificate })
      | Error f ->
        Error (Format.asprintf "certificate rejected: %a" Core.Certificate.pp_failure f))
    | _ -> Error "malformed store payload"

(* ---------- framing ---------- *)

let output_frame oc payload =
  let header = Bytes.create 9 in
  Bytes.set header 0 'R';
  Bytes.set_int32_le header 1 (Int32.of_int (String.length payload));
  Bytes.set_int32_le header 5 (Core.Crc32.digest payload 0 (String.length payload));
  output_bytes oc header;
  output_string oc payload

(* Scan the raw file image for the longest valid prefix.  Returns the
   validated records in log order, the count of CRC-valid frames whose
   payload failed semantic validation, and the byte length of the valid
   prefix (everything past it is torn or corrupt and must go). *)
let scan data =
  let n = String.length data in
  if n < magic_len || String.sub data 0 magic_len <> magic then ([], 0, 0)
  else begin
    let records = ref [] in
    let dropped = ref 0 in
    let pos = ref magic_len in
    let stop = ref false in
    while not !stop do
      if !pos = n then stop := true
      else if n - !pos < 9 || data.[!pos] <> 'R' then stop := true
      else begin
        let len = Int32.to_int (String.get_int32_le data (!pos + 1)) in
        let crc = String.get_int32_le data (!pos + 5) in
        if len < 0 || len > max_payload || !pos + 9 + len > n then stop := true
        else if Core.Crc32.digest data (!pos + 9) len <> crc then stop := true
        else begin
          (match decode_payload (String.sub data (!pos + 9) len) with
          | Ok kv -> records := kv :: !records
          | Error _ -> incr dropped);
          pos := !pos + 9 + len
        end
      end
    done;
    (List.rev !records, !dropped, !pos)
  end

(* ---------- lifecycle ---------- *)

let append_channel path =
  open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path

let live_sorted table =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let channel t op =
  match t.out with None -> invalid_arg ("Store." ^ op ^ ": store is closed") | Some oc -> oc

(* The snapshot is written and fsynced in full before the live log is
   touched, so any failure up to the rename leaves the old log intact
   and still open for appends; only the temp file is cleaned up. *)
let compact t =
  let oc = channel t "compact" in
  flush oc;
  let tmp = t.path ^ ".compact" in
  (try
     let snap = open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr snap)
       (fun () ->
         output_string snap magic;
         List.iter
           (fun (key, entry) -> output_frame snap (encode_payload key entry))
           (live_sorted t.table);
         flush snap;
         Unix.fsync (Unix.descr_of_out_channel snap));
     Sys.rename tmp t.path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* The old channel appends to the unlinked pre-snapshot file. *)
  t.out <- None;
  close_out_noerr oc;
  t.out <- Some (append_channel t.path);
  t.frames <- Hashtbl.length t.table;
  t.compactions <- t.compactions + 1

(* Snapshot once the dead records outnumber the live ones (and there are
   enough of them to be worth a rewrite).  Automatic snapshots are an
   optimization: a failed one leaves the log as it was, so the put or
   open that triggered it still succeeds. *)
let auto_compact t =
  let live = Hashtbl.length t.table in
  let dead = t.frames - live in
  if dead >= 16 && dead > max 1 live then
    try compact t with Sys_error _ | Unix.Unix_error _ -> ()

let open_ path =
  let data =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""
  in
  let records, dropped, valid_len = scan data in
  let table = Hashtbl.create 256 in
  List.iter (fun (key, entry) -> Hashtbl.replace table key entry) records;
  (* Repair the file before the first append: cut the invalid tail, or
     rewrite the magic if even the header is gone. *)
  if valid_len < magic_len then
    Out_channel.with_open_gen
      [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
      0o644 path
      (fun oc -> output_string oc magic)
  else if valid_len < String.length data then Unix.truncate path valid_len;
  let t =
    {
      path;
      table;
      out = Some (append_channel path);
      frames = List.length records + dropped;
      compactions = 0;
      recovery =
        {
          live = Hashtbl.length table;
          records = List.length records;
          dropped;
          truncated_bytes = max 0 (String.length data - valid_len);
        };
    }
  in
  auto_compact t;
  t

let path t = t.path
let recovery t = t.recovery
let length t = Hashtbl.length t.table
let find t key = Hashtbl.find_opt t.table key
let compactions t = t.compactions

let fold t ~init ~f =
  List.fold_left (fun acc (key, entry) -> f acc key entry) init (live_sorted t.table)

let put t key entry =
  let oc = channel t "put" in
  (match entry with
  | No_tiling -> if key = "" then invalid_arg "Store.put: empty key"
  | Found { tiling; certificate } -> (
    match Core.Verdict.check_key ~key tiling certificate with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Store.put: " ^ msg)));
  output_frame oc (encode_payload key entry);
  flush oc;
  Hashtbl.replace t.table key entry;
  t.frames <- t.frames + 1;
  auto_compact t

let close t =
  match t.out with
  | None -> ()
  | Some oc ->
    flush oc;
    close_out oc;
    t.out <- None
