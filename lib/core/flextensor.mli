(** FlexTensor: automatic schedule exploration and optimization for
    tensor computations on heterogeneous systems (ASPLOS 2020).

    Typical use:

    {[
      let graph = Flextensor.Operators.gemm ~m:1024 ~n:1024 ~k:1024 in
      let report = Flextensor.optimize graph Flextensor.Target.v100 in
      print_string (Flextensor.generated_code report)
    ]}

    The user writes only the mathematical description; the front-end
    analyses it and generates a hardware-specific schedule space, and
    the back-end explores that space with simulated annealing +
    Q-learning. *)

module Expr = Ft_ir.Expr
module Op = Ft_ir.Op
module Operators = Ft_ir.Operators
module Static_analyzer = Ft_analysis.Static_analyzer
module Target = Ft_schedule.Target
module Space = Ft_schedule.Space
module Config = Ft_schedule.Config
module Primitive = Ft_schedule.Primitive
module Neighborhood = Ft_schedule.Neighborhood
module Perf = Ft_hw.Perf
module Lowering = Ft_lower.Lowering
module Pretty = Ft_lower.Pretty
module Verify = Ft_lower.Verify

(** Staged compilation of lowered loop nests into closures over flat
    Bigarray buffers ({!Ft_lower.Compile}) — the measurement backend;
    bit-for-bit equal to the {!Ft_lower.Exec} reference. *)
module Compile = Ft_lower.Compile

(** Wall-clock measurement of scheduled configs via {!Compile}
    ({!Ft_lower.Measure}); results carry [Measured] provenance. *)
module Measure = Ft_lower.Measure

(** The monotonic clock ({!Ft_util.Monotime}) behind every duration
    and deadline — immune to NTP steps. *)
module Monotime = Ft_util.Monotime

(** Process-isolated measurement ({!Ft_lower.Sandbox}, DESIGN.md §11):
    one long-lived worker process per tuner (spawned at the first
    measurement, legal beside live domains) serves every measurement
    under per-request rlimit caps and a SIGKILL watchdog, so hangs,
    segfaults, and OOMs become structured [Perf.invalid] results
    instead of killing the tuner; any fault retires the worker and
    the next measurement spawns a fresh one.  The CLI's
    [--measure] runs through {!Sandbox.measurer} by default
    ([--measure-isolate off] opts out). *)
module Sandbox = Ft_lower.Sandbox

module Driver = Ft_explore.Driver

(** Search telemetry: spans, counters, gauges and structured events
    emitted to a JSONL sink ({!Ft_obs.Trace.enable_jsonl}, or
    [FT_TRACE] via {!Ft_obs.Trace.init_from_env}).  Disabled by
    default and zero-cost when off; tracing never consumes search RNG
    or changes evaluation order, so results are bit-for-bit identical
    with or without it. *)
module Trace = Ft_obs.Trace

(** Schedule serialization ({!Ft_schedule.Config_io}): the textual
    config format stored in tuning logs. *)
module Config_io = Ft_schedule.Config_io

(** Persistent schedule repository: append-only JSONL tuning log with
    exact-key and nearest-shape queries ({!Ft_store.Store}).  Store
    reads and writes never consume search RNG, so logging leaves
    search results bit-for-bit unchanged. *)
module Store = Ft_store.Store

module Store_record = Ft_store.Record

(** Cross-shape schedule transfer (warm starts) ({!Ft_store.Transfer}). *)
module Transfer = Ft_store.Transfer

(** The search methods ({!Ft_explore.Method}): one fixed table of
    Q-method, P-method, random, CD-method, AutoTVM and AutoTVM-2019,
    each selectable by name or CLI key in {!options.search}. *)
module Method = Ft_explore.Method

(** The shared search scaffolding and its parameter record
    ({!Ft_explore.Search_loop}) — what a method's [search] receives. *)
module Search_loop = Ft_explore.Search_loop

(** Deterministic fault injection ({!Ft_fault.Plan}), absorbed by the
    shared retry / quarantine loop ({!Ft_fault.Resilience}): a seeded
    plan of measurement failures —
    compile errors, timeouts, runtime crashes, noisy repeats, lane
    deaths — whose outcomes are a pure function of (plan seed, config
    key, attempt).  {!Fault.zero} (the default) injects nothing and
    leaves every result bit-for-bit unchanged. *)
module Fault = Ft_fault.Plan

(** Crash-safe search checkpoints ({!Ft_store.Checkpoint}): the JSONL
    records behind {!options.checkpoint} / [optimize --resume]. *)
module Checkpoint = Ft_store.Checkpoint

(** The servable sharded repository ({!Ft_store.Shard}): per-operator
    JSONL shard files under one directory, an in-memory index with
    O(1) exact lookups, and best-k compaction — what [flextensor
    serve] serves. *)
module Store_shard = Ft_store.Shard

(** The tuning-service wire protocol ({!Ft_store.Protocol}):
    length-prefixed JSON text frames over Unix/TCP sockets. *)
module Store_protocol = Ft_store.Protocol

(** The tuning-service daemon ({!Ft_store.Server}) behind [flextensor
    serve --store DIR --listen ADDR]. *)
module Store_server = Ft_store.Server

(** Client connection to a tuning daemon ({!Ft_store.Client}) — the
    remote repository behind [optimize --reuse=HOST:PORT]. *)
module Store_client = Ft_store.Client

(** The price of a fresh point on the simulated clock
    ({!Ft_explore.Evaluator}; the search driver owns the clock and the
    commit loop) — exposed for its [dispatch] type, the hook
    {!optimize}'s [?dispatch] takes; the benchmark's traced pass plugs
    a timed cost-model dispatch into it. *)
module Evaluator = Ft_explore.Evaluator

(** The CLI's target and operator tables ({!Ft_workloads.Catalog})
    under their old name.  Kept only because
    [benchmark/kit/spec.ml] calls it. *)
module Fleet_task = Ft_workloads.Catalog

(** What is left of the host domain pool: every map runs on the
    calling domain.  Kept only because [benchmark/kit/child.ml] calls
    it. *)
module Pool : sig
  type t

  (** Raises [Invalid_argument] below 1; otherwise has no effect. *)
  val set_default_jobs : int -> unit

  val default : unit -> t

  (** Always 1. *)
  val lanes : t -> int

  (** [List.map]. *)
  val map : t -> ('a -> 'b) -> 'a list -> 'b list

  (** A no-op. *)
  val quiesce_default : unit -> unit
end

type options = {
  seed : int;
  n_trials : int;
  search : string;
      (** a method name or CLI key ({!Method.find_exn});
          [optimize] raises [Invalid_argument] for unknown names *)
  max_evals : int option;  (** hard measurement budget *)
  n_parallel : int;
      (** simulated measurement devices: the clock charges batched
          evaluations max-over-lanes in waves of [n_parallel] (Fig
          6d/7 exploration-time semantics); 1 = the paper's
          single-device accounting *)
  faults : Fault.t;
      (** injected measurement failures ({!Fault.of_spec}); the
          default {!Fault.zero} injects nothing and is bit-for-bit
          invisible.  With faults active the evaluator retries with
          exponential backoff, aggregates noisy repeats by median,
          quarantines configs that exhaust their retries, and degrades
          the parallel-wave width when a lane dies. *)
  checkpoint : string option;
      (** JSONL file the search appends a checkpoint to every 5 trials
          (incumbent, trial index, RNG state) for crash-safe resume *)
  resume : bool;
      (** continue from the newest checkpoint in [checkpoint] matching
          this (space, method, seed) run — the resumed search's final
          best is always >= the checkpointed best *)
}

(** The Q-method, with {!Search_loop.default_params}' values for every
    other field: seed 2020, 60 trials, no budget, one device, no
    faults, no checkpoint.  The other §5.1 hyperparameters are
    constants: 4 annealing starts, gamma 2.0 and the 0.15
    uniform-sample probability in {!Search_loop.sa_starts}, and the
    Q-agent's constants in {!Ft_qlearn.Agent} (epsilon 0.3 and the rest);
    [optimize] always takes 5 Q-method steps per start. *)
val default_options : options

(** How the reported schedule was obtained: [Searched] — a cold
    search; [Transferred n] — a search warm-started with [n] schedules
    refitted from a tuning log; [Reused] — a logged schedule reapplied
    outright (no search, zero fresh measurements). *)
type provenance = Searched | Transferred of int | Reused

type report = {
  graph : Op.graph;
  target : Target.t;
  space : Space.t;
  space_size : float;
  analysis : Static_analyzer.graph_info;
  config : Config.t;
  primitives : Primitive.t list;
  perf : Perf.t;
  perf_value : float;  (** GFLOPS (or GB/s for zero-FLOP operators) *)
  measured : Perf.t option;
      (** host measurement of [config] through the compiled executor
          ([Measured] provenance) when {!optimize} ran with a
          [measurer]; informational only — [perf_value] and the tuning
          log's best stay analytical *)
  n_evals : int;
  sim_time_s : float;  (** simulated exploration time *)
  history : Driver.sample list;
  provenance : provenance;
}

(** Optimize a tensor computation for a target.  Validates the graph,
    generates the schedule space, explores it, and returns the best
    schedule with its predicted performance.

    With [~store], the finished search is appended to the tuning log;
    with [~remote], it is also appended to the shared repository
    served by a tuning daemon.  A search that found no valid schedule
    ({!Driver.succeeded} false, e.g. every candidate quarantined) is
    appended nowhere.  With [~reuse:true] (requires [~store]
    or [~remote]): an exact-key hit for the same search method — the
    remote repository is consulted first — reapplies the logged
    schedule through the cost model: zero fresh measurements,
    [n_evals = 0], and (the model being deterministic) a value
    identical to the logged best.  A miss warm-starts the search with
    refitted nearest-shape schedules appended after the regular seed
    points, leaving the RNG draw sequence untouched.  Remote
    transport failures degrade into misses — a dead daemon can cost a
    warm start, never fail a search.

    [dispatch] routes fresh evaluations to an external backend
    (the benchmark's traced pass times the cost model through one); by
    the {!Evaluator.dispatch} contract the report is bit-for-bit what
    the local cost model produces.

    [measurer] (an {!Evaluator.measurer}, e.g.
    [Measure.run space]) times the winning config on the host after
    the search completes and stores the result in the report's
    [measured] field; the search trajectory, the analytical best, and
    a logged record's [best_value] are unchanged — only the record's
    [source] notes the measurement. *)
val optimize :
  ?options:options ->
  ?store:Store.t ->
  ?remote:Store_client.t ->
  ?reuse:bool ->
  ?dispatch:Evaluator.dispatch ->
  ?measurer:Evaluator.measurer ->
  Op.graph ->
  Target.t ->
  report

(** Reapply a serialized schedule ({!Config_io} format) to a graph and
    target without searching or measuring: validate it against the
    freshly generated space and query the cost model.  [Error]
    explains a parse failure or a space mismatch. *)
val reapply : Op.graph -> Target.t -> string -> (report, string) result

(** Pseudo-C rendering of the optimized schedule's loop nest. *)
val generated_code : report -> string

(** End-to-end semantic check of the optimized schedule
    ({!Verify.check}; meant for small graphs — execution is
    point-by-point). *)
val verify : report -> (unit, string) result

val report_summary : report -> string
