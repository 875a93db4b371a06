(** AutoTVM baseline (§6.5): a gradient-boosted-tree cost model,
    simulated-annealing proposal and batched measurements over a
    template, a restriction of FlexTensor's own space: [`Divisor] models
    the mainline templates (every divisible split), [`Paper_era] the
    2019 ones the paper compared against (see EXPERIMENTS.md). *)

(** [template kind space]: [space] with the template's domains.  Both
    pin order 0, fuse depth 1, inlining, partition 0 and vectorize (on
    for CPU targets only).  [`Divisor] keeps the spatial splits, lists
    reduce splits [(e/r, 1, r)] over the divisors [r] of [e] and unroll
    ids 0 and 2; [`Paper_era] lists [(e/(f3*f4), 1, f3, f4)] and
    [(e/r, 1, r)] with [f3], [f4], [r] snapped near a few powers of two,
    and pins unroll id 1 (no virtual threading, fixed unrolling). *)
val template : [ `Divisor | `Paper_era ] -> Ft_schedule.Space.t -> Ft_schedule.Space.t

(** The search behind {!Method}'s AutoTVM rows, over any space:
    [params.n_trials] rounds, each scoring 128 proposals (random points
    and one-decision mutations of measured ones) and measuring the best
    8.  H is seeded with 8 random points (never the schedule-space
    heuristics), then any [params.transfer_seeds]. *)
val policy : Search_loop.policy
