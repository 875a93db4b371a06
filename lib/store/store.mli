(** Persistent schedule repository: an append-only JSONL tuning log
    (one {!Record.t} per line), in the spirit of AutoTVM's tophub logs.
    It is the only schedule repository: processes that share schedules
    share one log file.

    Invariants:
    - appends are atomic at line granularity ([O_APPEND], the whole
      line in one [write(2)] — {!Store_io.append_line}), so a crashed
      or concurrent writer can at worst leave one torn final line,
      even for records longer than a channel buffer;
    - loading is tolerant: malformed lines are skipped and reported
      via {!issues}, never raised;
    - {!best_exact} and {!nearest} are served from an in-memory
      {!Index} (hash-keyed lookups) — no per-query list rebuild or
      full-log fold;
    - the store NEVER feeds back into search randomness — reads and
      writes consume no search RNG, so logging leaves results
      bit-for-bit unchanged (DESIGN.md §9). *)

type t

(** A skipped log line. *)
type issue = { line : int;  (** 1-based line number *) reason : string }

(** [create ()] is an in-memory store; [create ~path ()] loads [path]
    if it exists (a missing file is an empty store) and appends every
    subsequent {!add} to it. *)
val create : ?path:string -> unit -> t

(** [load path] = [create ~path ()]. *)
val load : string -> t

(** Records in chronological (file) order. *)
val records : t -> Record.t list

(** Malformed lines skipped while loading, in file order. *)
val issues : t -> issue list

(** Append one record to memory and (when backed) to the log file. *)
val add : t -> Record.t -> unit

(** Best (highest [best_value]) record whose key matches exactly;
    [method_name] restricts to records produced by that search
    method.  Earliest record wins ties. *)
val best_exact : ?method_name:string -> t -> Record.key -> Record.t option

(** Up to [limit] (default 3) transfer candidates for a key: each
    distinct shape's best record for the {!Record.same_operator}
    problem, ranked by {!Record.shape_distance}, then higher value,
    then textual shape id.  Only the exact key is excluded, so its own
    extents under another graph name come back at distance 0. *)
val nearest : ?method_name:string -> ?limit:int -> t -> Record.key -> Record.t list
