(** Point evaluation with a simulated wall clock.

    The searches only see a scalar performance value per point; this
    module also accounts for how long obtaining that value would have
    taken on the paper's setup (real measurement on CPU/GPU, analytical
    model query on FPGA), which is what the exploration-time figures
    (6d, 7) plot.

    A candidate list is evaluated by one commit loop
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

(** [create space] builds an evaluator.  Points of a CPU or GPU space
    are charged as hardware measurements, points of an FPGA space as
    analytical-model queries (§5.2).  [n_parallel] (default 1) is
    the number of simulated measurement devices the clock assumes;
    [dispatch] routes batched fresh points to an external backend
    instead of the local cost model; [faults] injects
    measurement failures, absorbed by {!Ft_fault.Resilience}'s default
    policy (DESIGN.md §11): every attempt and backoff is charged to the
    simulated clock, a noisy timing is the median of 3 repeats, and a
    config whose retries are exhausted is quarantined — cached as an
    invalid {!Ft_hw.Perf.t} with value 0 and never remeasured.  Omitted,
    or with a plan that injects nothing, the evaluator is bit-for-bit
    the fault-free one.  Raises [Invalid_argument] when
    [n_parallel < 1]. *)
val create :
  ?n_parallel:int ->
  ?dispatch:dispatch -> ?faults:Ft_fault.Plan.t ->
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

(** [commit_batch t ~should_stop cfgs on_commit] commits [cfgs] in
    input order, checking [should_stop ()] before each point and
    stopping at the first that holds; [on_commit cfg value] runs after
    each commit.  Cache hits (duplicates after their first occurrence
    included) charge the cache cost; fresh points are computed (the
    uncached first occurrences of [cfgs] through [dispatch] in one
    call, when the evaluator has one), enter the cache, count as an
    eval, and charge the clock in waves of {!live_lanes}.  A partial
    final wave is charged on return. *)
val commit_batch :
  t -> should_stop:(unit -> bool) -> Ft_schedule.Config.t list ->
  (Ft_schedule.Config.t -> float -> unit) -> unit

(** Simulated seconds elapsed. *)
val clock : t -> float

(** Distinct points evaluated. *)
val n_evals : t -> int

(** Measurement lanes still alive: [n_parallel] minus injected lane
    deaths, floored at 1.  Waves fill up to this count, so a dead lane
    degrades every subsequent wave. *)
val live_lanes : t -> int
