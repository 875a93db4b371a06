(** Point evaluation with a simulated wall clock.

    The searches only see a scalar performance value per point; this
    module also accounts for how long obtaining that value would have
    taken on the paper's setup (real measurement on CPU/GPU, analytical
    model query on FPGA), which is what the exploration-time figures
    (6d, 7) plot.

    Evaluation is batchable: the pure cost-model queries of a
    candidate list run in parallel on a {!Ft_par.Pool}, while cache
    entries, eval counts, and clock charges are committed sequentially
    in the caller's order — so every search result is bit-for-bit
    independent of the pool size.  [n_parallel] models the paper's
    multi-device measurement for the simulated clock only: fresh
    points are charged in waves of [n_parallel], max cost over the
    wave (the concurrent devices finish with the slowest lane);
    [n_parallel = 1] reproduces the sequential accounting exactly. *)

type mode = Hardware_measure | Model_query

type t

val default_mode : Ft_schedule.Target.t -> mode

(** An external evaluation backend for {!prepare}'s fresh points — the
    benchmark's traced pass times the cost model through one.
    Contract: return one entry per input, in input order, each
    bit-for-bit what the local cost model would produce.  A dispatch changes only {e where} the pure
    computation runs; results, cache contents, clock charges and
    commit order are untouched, so a dispatched search is identical to
    an in-process one. *)
type dispatch =
  (Ft_schedule.Config.t * string) list -> (float * Ft_hw.Perf.t) list

(** A hardware measurement hook, mirroring {!dispatch}'s
    shape-changes-nothing contract: it runs strictly {e after} a
    search finishes, on the winning config only, and must return a
    perf tagged {!Ft_hw.Perf.Measured}.  Because no measurement ever
    feeds back into evaluation, caching, or the RNG, a measured run's
    search trajectory is bit-for-bit the analytical one. *)
type measurer = Ft_schedule.Config.t -> Ft_hw.Perf.t

(** [create space] builds an evaluator.  [n_parallel] (default 1) is
    the number of simulated measurement devices the clock assumes;
    [pool] is the domain pool used for batched evaluation (default:
    {!Ft_par.Pool.default}); [dispatch] routes batched fresh points to
    an external backend instead of the pool; [faults] injects
    measurement failures, absorbed by {!Ft_fault.Resilience}'s default
    policy (DESIGN.md §11): every attempt and backoff is charged to the
    simulated clock, a noisy timing is the median of 3 repeats, and a
    config whose retries are exhausted is quarantined — cached as an
    invalid {!Ft_hw.Perf.t} with value 0 and never remeasured.  Omitted,
    or with a plan that injects nothing, the evaluator is bit-for-bit
    the fault-free one.  Raises [Invalid_argument] when
    [n_parallel < 1]. *)
val create :
  ?flops_scale:float -> ?mode:mode -> ?n_parallel:int ->
  ?pool:Ft_par.Pool.t -> ?dispatch:dispatch -> ?faults:Ft_fault.Plan.t ->
  Ft_schedule.Space.t -> t

(** Add search bookkeeping time to the simulated clock. *)
val charge : t -> float -> unit

(** Performance value E of a point (cached), charging the clock. *)
val measure : t -> Ft_schedule.Config.t -> float

(** Full model result for a point (measures it if new). *)
val perf_of : t -> Ft_schedule.Config.t -> Ft_hw.Perf.t

(** Non-charging cache peek: the value and model result of a point if
    it has been measured, touching neither the clock nor any counter.
    For assembling results — never a substitute for {!measure}. *)
val peek : t -> Ft_schedule.Config.t -> (float * Ft_hw.Perf.t) option

(** A prepared batch: cost-model results computed in parallel but not
    yet committed to the cache, eval count, or clock. *)
type batch

(** [prepare t keyed] computes the uncached points of [keyed] on the
    pool (deduplicating within the batch).  Points travel as
    [(config, Config.key config)] pairs so each key is built once
    across the whole batch.  Pure with respect to the evaluator: no
    cache, count, or clock change until [commit]. *)
val prepare : t -> (Ft_schedule.Config.t * string) list -> batch

(** [commit t batch (cfg, key)] folds one point into the evaluator:
    cache hits charge the cache cost; fresh points (looked up in
    [batch], or computed inline when absent) enter the cache, count as
    an eval, and charge the clock in waves of [n_parallel].  Call
    {!flush} after the last commit of a batch. *)
val commit : t -> batch -> Ft_schedule.Config.t * string -> float

(** Charge any partially filled final wave of a batch. *)
val flush : t -> batch -> unit

(** [measure_batch t cfgs] = prepare, commit every point in input
    order, flush — returning each input config with its value.
    Duplicates after their first occurrence behave as cache hits. *)
val measure_batch :
  t -> Ft_schedule.Config.t list -> (Ft_schedule.Config.t * float) list

(** Simulated seconds elapsed. *)
val clock : t -> float

(** Distinct points evaluated. *)
val n_evals : t -> int

(** Measurement lanes still alive: [n_parallel] minus injected lane
    deaths, floored at 1.  Waves fill up to this count, so a dead lane
    degrades every subsequent wave. *)
val live_lanes : t -> int
