(** Shared bookkeeping for the search methods: the evaluated set H
    (the paper's exploration never revisits a point in it), the
    incumbent best, the best-so-far timeline, the simulated clock and
    the one commit loop that adds points to H. *)

type sample = { at_s : float; n_evals : int; best_value : float }

type result = {
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
  dispatch : Evaluator.dispatch option;
  max_evals : int;  (** [max_int]: no budget *)
  index : int Ft_schedule.Config.Tbl.t;
  pool : Ft_schedule.Config.t Ft_anneal.Sa.pool;  (** the evaluated set H *)
  mutable best : Ft_schedule.Config.t * float;
  mutable best_perf : Ft_hw.Perf.t option;  (** [None] if {!absorb}ed *)
  mutable samples : sample list;
  mutable lanes : int;  (** simulated devices minus injected lane deaths *)
  mutable clock_s : float;
  mutable n_evals : int;
}

val seen : state -> Ft_schedule.Config.t -> bool

(** The value of a point in H (its first occurrence's), or [None]. *)
val value : state -> Ft_schedule.Config.t -> float option

(** [absorb state cfg value] folds an externally measured point into
    H, updating the incumbent and the timeline, without charging the
    clock — for replaying persisted measurements or custom
    objectives. *)
val absorb : state -> Ft_schedule.Config.t -> float -> unit

(** [evaluate_batch state cfgs] commits [cfgs] in input order,
    skipping points in H (a later duplicate included) and stopping at
    the [max_evals] budget.  Fresh points are charged in waves of the
    live lanes, max cost over the wave, a partial last wave on return.
    Returns the number of points committed. *)
val evaluate_batch : state -> Ft_schedule.Config.t list -> int

(** [init evaluator initial] builds the search state and commits
    [initial] like {!evaluate_batch}, but keeping duplicates as hits
    (charged at once, re-entering H at the first value) and ignoring
    the budget.  [n_parallel] (default 1) is the number of simulated
    measurement devices, [dispatch] an external cost-model backend
    (called once per commit loop), [max_evals] the budget.  Raises
    [Invalid_argument] on an empty list or [n_parallel < 1]. *)
val init :
  ?n_parallel:int -> ?dispatch:Evaluator.dispatch -> ?max_evals:int ->
  Evaluator.t -> Ft_schedule.Config.t list -> state

(** Add search bookkeeping time to the simulated clock. *)
val charge : state -> float -> unit

(** Simulated seconds elapsed. *)
val clock : state -> float

(** Distinct points evaluated. *)
val n_evals : state -> int

(** True once [max_evals] points are evaluated. *)
val out_of_budget : state -> bool

(** Assemble the result, charging and counting nothing (an absorbed
    incumbent's perf is {!Evaluator.compute}'s).  If the incumbent's
    model result is invalid (every candidate failed, e.g. all
    quarantined under fault
    injection), [finish] flags it: a [driver.invalid_best] counter and
    event fire, and {!succeeded} on the result is [false] — a
    [best_value] of 0. from such a run must not be mistaken for a
    measured schedule. *)
val finish : state -> result

(** True when the result's best schedule is valid ([best_perf.valid]);
    false for a run whose every candidate was invalid. *)
val succeeded : result -> bool
