(** Point evaluation with a simulated wall clock.

    The searches only see a scalar performance value per point; this
    module also accounts for how long obtaining that value would have
    taken on the paper's setup (real measurement on CPU/GPU, analytical
    model query on FPGA), which is what the exploration-time figures
    (6d, 7) plot.

    The evaluator keeps no per-point state: the caller owns the
    evaluated set H ({!Driver.state}) and passes a [known] lookup.  A
    known point is a hit, charged a small fixed cost and never
    recomputed.  A candidate list is evaluated by one commit loop
    ({!commit_batch}): points are committed strictly in input order,
    each fresh one computed when it is committed (or, with a
    {!dispatch}, all of a batch's fresh points in one call), so every
    search result is decided by commit order alone.  [n_parallel]
    models the paper's multi-device measurement for the simulated
    clock only: fresh points are charged in waves of [n_parallel], max
    cost over the wave (the concurrent devices finish with the slowest
    lane); [n_parallel = 1] reproduces the sequential accounting
    exactly. *)

type t

(** An external evaluation backend for {!commit_batch}'s fresh points — the
    benchmark's traced pass times the cost model through one.  Points
    arrive as [(config, Config.compute_key config)] pairs.
    Contract: return one entry per input, in input order, each
    bit-for-bit what the local cost model would produce.  A dispatch
    changes only {e where} the pure computation runs; results, clock
    charges and commit order are untouched, so a dispatched search is
    identical to an in-process one. *)
type dispatch =
  (Ft_schedule.Config.t * string) list -> (float * Ft_hw.Perf.t) list

(** A hardware measurement hook, mirroring {!dispatch}'s
    shape-changes-nothing contract: it runs strictly {e after} a
    search finishes, on the winning config only, and must return a
    perf tagged {!Ft_hw.Perf.Measured}.  Because no measurement ever
    feeds back into evaluation or the RNG, a measured run's
    search trajectory is bit-for-bit the analytical one. *)
type measurer = Ft_schedule.Config.t -> Ft_hw.Perf.t

(** [create space] builds an evaluator.  Points of a CPU or GPU space
    are charged as hardware measurements, points of an FPGA space as
    analytical-model queries (§5.2).  [n_parallel] (default 1) is
    the number of simulated measurement devices the clock assumes;
    [dispatch] routes batched fresh points to an external backend
    instead of the local cost model; [faults] injects
    measurement failures, absorbed by {!Ft_fault.Resilience}'s default
    policy (DESIGN.md §11): every attempt and backoff is charged to the
    simulated clock, a noisy timing is the median of 3 repeats, and a
    config whose retries are exhausted is quarantined — committed as an
    invalid {!Ft_hw.Perf.t} with value 0, so it enters H and is never
    remeasured.  Omitted, or with a plan that injects nothing, the
    evaluator is bit-for-bit the fault-free one.  Raises [Invalid_argument] when
    [n_parallel < 1]. *)
val create :
  ?n_parallel:int ->
  ?dispatch:dispatch -> ?faults:Ft_fault.Plan.t ->
  Ft_schedule.Space.t -> t

(** Add search bookkeeping time to the simulated clock. *)
val charge : t -> float -> unit

(** [measure t ~known cfg] is [None] for a hit ([known cfg]: the hit
    cost, counted as [eval.cache_hit]) and otherwise the fresh point's
    value E and model result (fault-resolved under a plan), counted as
    an eval and charged to the clock. *)
val measure :
  t -> known:(Ft_schedule.Config.t -> bool) -> Ft_schedule.Config.t ->
  (float * Ft_hw.Perf.t) option

(** The model result of a point, charging and counting nothing. *)
val model : t -> Ft_schedule.Config.t -> Ft_hw.Perf.t

(** [commit_batch t ~known ~should_stop cfgs on_commit] runs
    [on_commit cfg (measure t ~known cfg)] on [cfgs] in input order,
    checking [should_stop ()] before each point and stopping at the
    first that holds.  [known] is asked at each commit, so a duplicate
    of a point [on_commit] added to H is a hit.  Fresh points (with a
    [dispatch], the batch's first occurrences of points not [known] at
    the start, computed in one call) are charged in waves of the live
    lanes: [n_parallel] minus injected lane deaths, floored at 1, so a
    dead lane degrades every subsequent wave.  A partial final wave is
    charged on return. *)
val commit_batch :
  t -> known:(Ft_schedule.Config.t -> bool) -> should_stop:(unit -> bool) ->
  Ft_schedule.Config.t list ->
  (Ft_schedule.Config.t -> (float * Ft_hw.Perf.t) option -> unit) -> unit

(** Simulated seconds elapsed. *)
val clock : t -> float

(** Distinct points evaluated. *)
val n_evals : t -> int
