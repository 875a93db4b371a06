(** The tuning-service wire protocol: length-prefixed text frames over
    a Unix or TCP socket.

    Framing: a frame is the payload's byte length as ASCII decimal,
    one ['\n'], then exactly that many payload bytes.  The payload is
    one JSON object ({!Json}), so the whole stream stays printable and
    debuggable with [nc].  Frames above {!max_frame} are rejected
    before any allocation — a garbage length prefix cannot make the
    peer allocate gigabytes.

    One request frame yields exactly one response frame; requests on
    one connection are processed in order.  Keys and records travel in
    the tuning-log field layout ({!Record.key_to_value} /
    {!Record.to_value}), so a remote record is byte-identical to the
    local log line it came from once re-rendered. *)

type request =
  | Ping
  | Best of { key : Record.key; method_name : string option }
  | Nearest of { key : Record.key; method_name : string option; limit : int }
  | Append of Record.t
  | Stats

type response =
  | Pong
  | Hit of Record.t option
  | Neighbors of Record.t list
  | Appended
  | Stats_reply of { count : int; shards : int }
  | Error of string

val request_to_string : request -> string
val request_of_string : string -> (request, string) result
val response_to_string : response -> string
val response_of_string : string -> (response, string) result

(** [write_frame oc payload] writes one frame and flushes. *)
val write_frame : out_channel -> string -> unit

(** [read_frame ic] reads one frame; [Error] on EOF ("connection
    closed" at a frame boundary), an unparsable length prefix, or an
    oversized frame. *)
val read_frame : in_channel -> (string, string) result

(** [frame_of_string s] is {!read_frame} over a stream holding exactly
    [s] — for a peer whose whole output was collected up to EOF. *)
val frame_of_string : string -> (string, string) result

(** Parse a listen/connect address: ["unix:PATH"], ["HOST:PORT"], or
    [":PORT"] / ["PORT"] (loopback). *)
val parse_addr : string -> (Unix.sockaddr, string) result

(** Render a socket address back to the textual form [parse_addr]
    accepts. *)
val string_of_sockaddr : Unix.sockaddr -> string
