(** The server's two wire dialects and the one reader that cuts their
    messages off an input stream.

    [Text] is the {!Protocol} line grammar, one message per
    ['\n']-terminated line; [Binary] is the {!Wire} frame.  A connection
    speaks one dialect for its lifetime, picked by its first byte.  The
    daemon's connections, the socket client and the open-loop load
    generator all read through {!cut}, so the per-connection input
    bounds ({!max_line}, {!Wire.max_payload}) live here alone. *)

type t = Text | Binary

val max_line : int
(** 1 MiB: the longest partial text line a reader buffers. *)

type reader
(** A growable input window ({!Evloop.Ibuf}) plus the text scan's
    resume offset, so each byte of a partial line is examined once
    however many reads it arrives in. *)

val reader : unit -> reader

val feed : reader -> bytes -> int -> unit
(** [feed r buf n] appends bytes [0..n-1] of [buf]. *)

val sniff : reader -> t option
(** The dialect the first buffered byte opens ({!Wire.is_binary});
    [None] while empty. *)

type cut =
  | Msg of string  (** a line without its ['\n'], or a whole frame *)
  | Need_more
  | Bad of string
      (** more than {!max_line} bytes without a ['\n'], or a frame head
          {!Wire.frame_total} rejects: the stream cannot be resynced *)

val cut : t -> reader -> cut
(** Take the next complete message off the window.  A complete line is
    a message whatever its length; only a partial one is bounded. *)

val scanned : reader -> int
(** The resume offset: the first [scanned r] buffered bytes hold no
    ['\n'].  Zero after a message is cut. *)

(** {2 Codecs}

    {!Protocol}'s for [Text], {!Wire}'s for [Binary], over the messages
    {!cut} yields. *)

val encode_request : t -> ?id:int -> Protocol.request -> string
val decode_request : t -> string -> (int option * Protocol.request, string) result
val encode_response : t -> ?id:int -> Protocol.response -> string
val decode_response : t -> string -> (int option * Protocol.response, string) result

val add_message : t -> Buffer.t -> string -> unit
(** Append one message as it goes on the wire: a line and its ['\n'],
    or a frame as is. *)
