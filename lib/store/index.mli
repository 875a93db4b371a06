(** In-memory query index over tuning-log records.

    The flat store answered [best_exact] with an O(n) fold over every
    record and [length] with [List.length] — both on the hot reuse
    path.  The index keeps, per exact key, the best record *per search
    method* (a hash lookup plus a walk of a one-per-method list), and
    per operator kind a table of shapes (log2 extents plus the best
    record per (method, graph)) that [nearest] ranks in one pass.

    Tie semantics are the store's: among equal [best_value]s the
    *earliest inserted* record wins, so reloading a log never changes
    which entry is served. *)

type t

val create : unit -> t

val add : t -> Record.t -> unit

(** Same contract as {!Store.best_exact}: highest value for the exact
    key (restricted to [method_name] when given), earliest wins ties. *)
val best_exact : ?method_name:string -> t -> Record.key -> Record.t option

(** Same contract as {!Store.nearest}. *)
val nearest : ?method_name:string -> ?limit:int -> t -> Record.key -> Record.t list
