(** Gradient-boosted regression trees — the XGBoost stand-in used by
    the AutoTVM baseline's cost model. *)

type t

(** [fit xs ys] boosts [rounds] (default 20) trees of depth [depth]
    (default 3), each shrunk by a learning rate of 0.3. *)
val fit : ?rounds:int -> ?depth:int -> float array array -> float array -> t

val predict : t -> float array -> float

(** [predict_batch model xs] scores every row through the flattened
    forest over one flat float64 feature matrix; [out.(i)] is
    bit-for-bit [predict model xs.(i)].  Rows must share a length. *)
val predict_batch : t -> float array array -> float array

(** Mean squared prediction error on a dataset. *)
val mse : t -> float array array -> float array -> float

val n_trees : t -> int
