(** Regression tree (greedy variance-reduction splits). *)

type t =
  | Leaf of float
  | Split of { feature : int; threshold : float; left : t; right : t }

(** Fit a depth-bounded tree on rows [xs] with targets [ys]. *)
val fit : depth:int -> float array array -> float array -> t

val predict : t -> float array -> float
