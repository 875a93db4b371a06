(** In-memory query index over tuning-log records.

    The flat store answered [best_exact] with an O(n) fold over every
    record and [length] with [List.length] — both on the hot reuse
    path.  The index keeps, per exact key, the best-k records *per
    search method* (a hash lookup plus a walk of a ≤ k·methods list),
    and per operator kind a table of shapes (log2 extents plus the best
    record per (method, graph)) that [nearest] ranks in one pass.

    Tie semantics are the store's: among equal [best_value]s the
    *earliest inserted* record wins, so reloading a log never changes
    which entry is served. *)

type t

(** [create ?k ()] retains the best [k] (default 4) records per
    (exact key, method). *)
val create : ?k:int -> unit -> t

(** Records inserted (an O(1) counter, not a list length). *)
val count : t -> int

val add : t -> Record.t -> unit

(** Same contract as {!Store.best_exact}: highest value for the exact
    key (restricted to [method_name] when given), earliest wins ties. *)
val best_exact : ?method_name:string -> t -> Record.key -> Record.t option

(** Same contract as {!Store.nearest}. *)
val nearest : ?method_name:string -> ?limit:int -> t -> Record.key -> Record.t list

(** The records every key retains (its per-method best-k), in
    insertion order — what compaction keeps when rewriting a shard. *)
val survivors : t -> Record.t list

(** [op_id key] = ["op|target|spatial rank|reduce rank"], the shard
    name stem; a ['|'] in a name can make two operators share it. *)
val op_id : Record.key -> string
