module Ibuf = Evloop.Ibuf

type t = Text | Binary

let max_line = 1024 * 1024

type reader = { buf : Ibuf.t; mutable scanned : int }

let reader () = { buf = Ibuf.create (); scanned = 0 }
let feed r chunk n = Ibuf.append r.buf chunk n
let scanned r = r.scanned

let sniff r =
  if r.buf.Ibuf.len = 0 then None
  else if Wire.is_binary (Bytes.get r.buf.Ibuf.data r.buf.Ibuf.start) then Some Binary
  else Some Text

type cut = Msg of string | Need_more | Bad of string

(* The first [n] buffered bytes as a message, consuming [consumed]. *)
let take r n consumed =
  let m = Bytes.sub_string r.buf.Ibuf.data r.buf.Ibuf.start n in
  Ibuf.drop r.buf consumed;
  r.scanned <- 0;
  m

(* The text scan resumes at [scanned], so a line dripped in over many
   reads costs one pass over its bytes, not one per read. *)
let cut d r =
  let b = r.buf in
  match d with
  | Text ->
    let data = b.Ibuf.data and stop = b.Ibuf.start + b.Ibuf.len in
    let rec scan i =
      if i = stop then None else if Bytes.get data i = '\n' then Some i else scan (i + 1)
    in
    (match scan (b.Ibuf.start + r.scanned) with
    | Some i ->
      let n = i - b.Ibuf.start in
      Msg (take r n (n + 1))
    | None ->
      r.scanned <- b.Ibuf.len;
      if b.Ibuf.len > max_line then Bad "line exceeds max_line" else Need_more)
  | Binary -> (
    match Wire.frame_total b.Ibuf.data ~off:b.Ibuf.start ~avail:b.Ibuf.len with
    | Wire.Bad_frame e -> Bad e
    | Wire.Total n when n <= b.Ibuf.len -> Msg (take r n n)
    | Wire.Need_more | Wire.Total _ -> Need_more)

let encode_request d ?id req =
  match d with
  | Text -> Protocol.request_to_string ?id req
  | Binary -> Wire.encode_request ?id req

let decode_request = function
  | Text -> Protocol.request_of_string
  | Binary -> Wire.decode_request

let encode_response d ?id resp =
  match d with
  | Text -> Protocol.response_to_string ?id resp
  | Binary -> Wire.encode_response ?id resp

let decode_response = function
  | Text -> Protocol.response_of_string
  | Binary -> Wire.decode_response

let add_message d buf m =
  Buffer.add_string buf m;
  if d = Text then Buffer.add_char buf '\n'
