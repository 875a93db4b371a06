(** Gradient-boosted regression trees — the XGBoost stand-in used by
    the AutoTVM baseline's cost model. *)

type t

(** [fit xs ys] boosts 12 trees of depth 3, each shrunk by a learning
    rate of 0.3. *)
val fit : float array array -> float array -> t

val predict : t -> float array -> float

(** The number of trees in the model.  Only [test_gbt] reads it: the
    tree list is abstract, so no caller can count it any other way. *)
val n_trees : t -> int
