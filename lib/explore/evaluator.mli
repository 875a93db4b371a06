(** The price of one fresh point on the simulated wall clock.

    The searches only see a scalar performance value per point; this
    module also accounts for how long obtaining that value would have
    taken on the paper's setup (real measurement on CPU/GPU, analytical
    model query on FPGA), which is what the exploration-time figures
    (6d, 7) plot.

    The evaluator keeps no mutable state and runs no loop: the driver
    ({!Driver.state}) owns H, the clock, the eval count, the live
    lanes and the budget, and commits points through its one commit
    loop.  This module only queries the cost model, prices a point
    and resolves the fault plan for it. *)

type t

(** An external evaluation backend for the driver's fresh points — the
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
    are priced as hardware measurements, points of an FPGA space as
    analytical-model queries (§5.2).  [faults] injects measurement
    failures, absorbed by {!Ft_fault.Resilience}'s default policy
    (DESIGN.md §11): every attempt and backoff is part of the price, a
    noisy timing is the median of 3 repeats, and a config whose
    retries are exhausted is quarantined — priced as an invalid
    {!Ft_hw.Perf.t} with value 0, so it enters H and is never
    remeasured.  Omitted, or with a plan that injects nothing, the
    evaluator is bit-for-bit the fault-free one. *)
val create : ?faults:Ft_fault.Plan.t -> Ft_schedule.Space.t -> t

(** The simulated cost of a point already in H. *)
val hit_cost : float

(** The cost model's value and result of a point, charging nothing. *)
val compute : t -> Ft_schedule.Config.t -> float * Ft_hw.Perf.t

(** [price t ~lane_dead cfg computed] is the entry a fresh point
    commits — [computed] itself, or under a fault plan the resolved
    (noisy or quarantined) one — and its simulated cost, the whole
    retry sequence's.  [lane_dead ()] runs once per injected lane
    death, when it strikes. *)
val price :
  t -> lane_dead:(unit -> unit) -> Ft_schedule.Config.t -> float * Ft_hw.Perf.t ->
  (float * Ft_hw.Perf.t) * float
