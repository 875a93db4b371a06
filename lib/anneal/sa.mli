(** Simulated annealing (§5.1): starting-point selection over the set
    of already-evaluated schedule points. *)

(** The evaluated set H: (point, performance) pairs in insertion order,
    with cached selection weights and the running best. *)
type 'a pool

val pool : unit -> 'a pool

(** [add pool point value] appends a point to H. *)
val add : 'a pool -> 'a -> float -> unit

(** H as [(point, performance)] pairs, newest first. *)
val to_list : 'a pool -> ('a * float) list

(** [select rng ~gamma ~count pool] draws [count] starting points (with
    replacement) from H, each with probability proportional to its
    weight exp(-gamma . (best - value) / best) against the best value
    in H (1 when the best is not positive) — uniformly when the total
    weight is not positive — and returns each draw together with its
    performance.  Zero-weight points are unreachable while any weight
    is positive.  An empty pool yields []. *)
val select :
  Ft_util.Rng.t -> gamma:float -> count:int -> 'a pool -> ('a * float) list

(** The deterministic core of {!select}: the point whose
    cumulative-weight interval, newest first, contains [threshold]
    (strict [>], so zero-weight points are unreachable); the oldest
    point is the fallback for [threshold >= total].  Raises
    [Invalid_argument] on an empty pool.  Only [test_anneal] calls it:
    [select] draws its thresholds from the RNG, so the exact-0 and
    interval-boundary cases cannot be reached through it. *)
val pick_at : gamma:float -> threshold:float -> 'a pool -> 'a
