(** Gradient-boosted regression trees — the XGBoost stand-in used by
    the AutoTVM baseline's cost model. *)

type t

(** [fit xs ys] boosts [rounds] (default 20) trees of depth [depth]
    (default 3), each shrunk by a learning rate of 0.3. *)
val fit : ?rounds:int -> ?depth:int -> float array array -> float array -> t

val predict : t -> float array -> float

val n_trees : t -> int
