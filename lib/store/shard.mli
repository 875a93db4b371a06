(** The servable schedule repository: a *directory* of per-operator
    JSONL shard files behind one in-memory {!Index}.

    Layout: every record is appended to
    [DIR/<op>-<target>-<ranks>.jsonl] — one shard per
    {!Record.same_operator} equivalence class, so compaction and
    nearest-shape queries touch one operator's file, never the whole
    repository.  Shard lines are ordinary tuning-log records
    ({!Record.to_json}); a shard file is itself a valid flat tuning
    log.

    Concurrency contract:
    - appends hold the shard's file lock ({!Store_io.with_file_lock})
      around open+write, so a concurrent compaction rename can never
      strand a record in the replaced inode;
    - compaction reads, rewrites and atomically renames the shard
      under the same lock — concurrent appenders lose nothing, and
      readers of the file always see a complete shard;
    - queries are served from the in-memory index under the
      repository mutex, so one [t] may be shared by server threads.

    One process serves a store directory at a time (the daemon);
    records appended to the files by *other* processes after
    {!open_dir} are not visible to this process's index until a
    reload. *)

type t

type issue = { shard : string;  (** shard base name *) line : int; reason : string }

(** [open_dir dir] creates [dir] if missing and indexes every
    [*.jsonl] shard in it.  [k] (default 4) is the best-k retained per
    (key, method) by compaction and by the index's per-key lists.
    [compact_every] (default off) auto-compacts a shard after that
    many appends to it. *)
val open_dir : ?k:int -> ?compact_every:int -> string -> t

(** Malformed lines skipped while loading, in shard/file order. *)
val issues : t -> issue list

(** Records indexed over this handle's lifetime (O(1)). *)
val count : t -> int

(** Base names of the shard files currently on disk. *)
val shards : t -> string list

(** Append to the key's shard file and index the record. *)
val add : t -> Record.t -> unit

(** Same contracts as {!Store.best_exact} / {!Store.nearest}, served
    from the index. *)
val best_exact : ?method_name:string -> t -> Record.key -> Record.t option

val nearest : ?method_name:string -> ?limit:int -> t -> Record.key -> Record.t list

(** Compact every shard: rewrite each [DIR/shard.jsonl] keeping the
    best-k records per (key, method), dropping the rest and any
    malformed lines, then atomically rename the rewrite into place.
    Each file is re-read under its shard lock, so records appended
    concurrently (by this or another process) survive.  Returns the
    summed [(kept, dropped)]. *)
val compact_all : t -> int * int
