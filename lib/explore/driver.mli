(** Shared bookkeeping for the search methods: the evaluated set H
    (the paper's exploration never revisits a point in it), the
    incumbent best, and the best-so-far timeline. *)

type sample = { at_s : float; n_evals : int; best_value : float }

type result = {
  method_name : string;
  best_config : Ft_schedule.Config.t;
  best_value : float;
  best_perf : Ft_hw.Perf.t;
  history : sample list;
  n_evals : int;
  sim_time_s : float;
}

(** H is stored once, in the annealing pool {!Search_loop.sa_starts}
    draws from; [index] maps each config in it to the pool index of its
    first occurrence.  Only the incumbent keeps its model result. *)
type state = {
  evaluator : Evaluator.t;
  index : int Ft_schedule.Config.Tbl.t;
  pool : Ft_schedule.Config.t Ft_anneal.Sa.pool;  (** the evaluated set H *)
  mutable best : Ft_schedule.Config.t * float;
  mutable best_perf : Ft_hw.Perf.t option;  (** [None] if {!absorb}ed *)
  mutable samples : sample list;
}

val seen : state -> Ft_schedule.Config.t -> bool

(** [absorb state cfg value] folds an externally measured point into
    H, updating the incumbent and the timeline, without charging the
    evaluator — for replaying persisted measurements or custom
    objectives.  Returns [value]. *)
val absorb : state -> Ft_schedule.Config.t -> float -> float

(** Measure a point, add it to H, update the incumbent; a point
    already in H is a hit and re-enters at its first value. *)
val evaluate : state -> Ft_schedule.Config.t -> float

(** [evaluate_batch state cfgs] measures a candidate frontier through
    {!Evaluator.commit_batch}: points are committed sequentially in
    input order — skipping points in H and in-batch duplicates, and
    stopping as soon as [should_stop ()] holds.  Results are identical
    to calling {!evaluate} on each unseen point in order.
    Returns the committed [(config, value)] pairs in order. *)
val evaluate_batch :
  ?should_stop:(unit -> bool) -> state -> Ft_schedule.Config.t list ->
  (Ft_schedule.Config.t * float) list

(** Evaluate the initial points and build the search state. *)
val init : Evaluator.t -> Ft_schedule.Config.t list -> state

(** Default initial H: the naive config, the generic per-hardware
    heuristic points (unless [heuristics] is false), [n] random
    points, then the [extra] warm-start points (default none) —
    appended last so the RNG stream does not depend on them. *)
val seed_points :
  ?heuristics:bool ->
  ?extra:Ft_schedule.Config.t list ->
  Ft_util.Rng.t -> Ft_schedule.Space.t -> int -> Ft_schedule.Config.t list

(** Assemble the result, charging and counting nothing (an absorbed
    incumbent's perf is {!Evaluator.model}'s).  If the incumbent's
    model result is invalid (every candidate failed, e.g. all
    quarantined under fault
    injection), [finish] flags it: a [driver.invalid_best] counter and
    event fire, and {!succeeded} on the result is [false] — a
    [best_value] of 0. from such a run must not be mistaken for a
    measured schedule. *)
val finish : method_name:string -> state -> result

(** True when the result's best schedule is valid ([best_perf.valid]);
    false for a run whose every candidate was invalid. *)
val succeeded : result -> bool
