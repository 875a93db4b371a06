(** Shared durability primitives for every JSONL trail in [ft_store]
    (tuning logs, checkpoint trails).

    The append contract: the full record line — content plus the
    trailing ['\n'] — is built as one string and handed to the kernel
    in a single [write] on an [O_APPEND] descriptor.  The stdlib
    channel path the store used before buffered the line and flushed
    on close, which silently splits a record longer than the channel
    buffer (64 KiB) into several writes — letting concurrent appenders
    interleave *inside* a line.  One [write(2)] on an [O_APPEND] fd
    has no such seam: the kernel serializes the whole call at the end
    of the file. *)

(** [append_line path line] appends [line ^ "\n"] to [path] (created
    [0o644] if missing) as a single write.  [line] must not itself
    contain ['\n'] — JSONL producers never emit one.  When [path] ends
    in a torn line (no final ['\n']), a ['\n'] is written first, in
    the same write, so the record starts on a line of its own. *)
val append_line : string -> string -> unit

(** [load_jsonl path decode] decodes the non-blank lines of [path]
    with [decode], tolerantly: it returns the decoded values and the
    [(line, reason)] of every line [decode] rejects, both in file
    order, with 1-based file line numbers.  A missing file is
    [([], [])]. *)
val load_jsonl :
  string -> (string -> ('a, string) result) -> 'a list * (int * string) list
