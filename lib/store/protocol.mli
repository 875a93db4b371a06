(** Length-prefixed text frames: the wire format of the measurement
    sandbox's worker pipe ({!Ft_lower.Sandbox}).

    A frame is the payload's byte length as ASCII decimal, one ['\n'],
    then exactly that many payload bytes.  The payload is one JSON
    object ({!Json}), so the stream stays printable.  A length above
    16 MiB is rejected before any allocation — a garbage length prefix
    cannot make the reader allocate gigabytes. *)

(** [write_frame oc payload] writes one frame and flushes. *)
val write_frame : out_channel -> string -> unit

(** [frame_of_string s] reads the one frame at the start of [s] — for
    a peer whose whole output was collected up to EOF.  [Error] on an
    empty [s] ("connection closed"), an unparsable length prefix, a
    length above 16 MiB, or fewer payload bytes than the prefix
    announces ("truncated frame"). *)
val frame_of_string : string -> (string, string) result
