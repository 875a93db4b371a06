type mode = Hardware_measure | Model_query

(* An external evaluation backend for [prepare]'s fresh points (the
   benchmark's traced pass times the cost model through one).  Must
   return one entry per input, in input order, each bit-for-bit equal
   to what [compute] would produce — dispatch replaces only *where*
   the pure cost model runs, never what it returns. *)
type dispatch =
  (Ft_schedule.Config.t * string) list -> (float * Ft_hw.Perf.t) list

(* A hardware measurement hook (mirrors [dispatch]'s shape: the hook
   changes where a number comes from, never the search that produced
   the config).  Measurers run strictly after a search finishes — on
   its winning config — so seeded analytical searches stay bit-for-bit
   reproducible; the returned perf must be tagged [Measured]. *)
type measurer = Ft_schedule.Config.t -> Ft_hw.Perf.t

type t = {
  space : Ft_schedule.Space.t;
  flops_scale : float;
  mode : mode;
  n_parallel : int;  (* simulated measurement devices (lanes) *)
  pool : Ft_par.Pool.t option;  (* None = the process-wide default *)
  dispatch : dispatch option;  (* external backend for batched fresh points *)
  faults : Ft_fault.Plan.t option;  (* Some only when the plan injects faults *)
  mutable live_lanes : int;  (* n_parallel minus injected lane deaths *)
  cache : (string, float * Ft_hw.Perf.t) Hashtbl.t;
  mutable clock_s : float;
  mutable n_evals : int;
}

(* On CPU/GPU the paper measures on the device (compile + 3 runs + host
   overhead); on FPGA synthesis is far too slow, so it queries the
   analytical model (§5.2).  The simulated clock charges each mode its
   respective cost so that exploration-time comparisons are
   meaningful. *)
let default_mode = function
  | Ft_schedule.Target.Gpu _ | Ft_schedule.Target.Cpu _ -> Hardware_measure
  | Ft_schedule.Target.Fpga _ -> Model_query

let compile_cost = 0.3
let host_overhead = 0.05
let runs_per_measure = 3
let failed_compile_cost = 0.1
let model_query_cost = 0.002
let cache_hit_cost = 0.0005

(* A noisy timing is re-run this many times and reported as the median. *)
let noisy_repeats = 3

let create ?(flops_scale = 1.0) ?mode ?(n_parallel = 1) ?pool ?dispatch
    ?faults space =
  if n_parallel < 1 then invalid_arg "Evaluator.create: n_parallel must be >= 1";
  let mode =
    match mode with Some m -> m | None -> default_mode space.Ft_schedule.Space.target
  in
  let faults =
    Option.bind faults (fun plan ->
        if Ft_fault.Plan.injects_measurement_faults plan then Some plan else None)
  in
  { space; flops_scale; mode; n_parallel; pool; dispatch; faults;
    live_lanes = n_parallel;
    cache = Hashtbl.create 256; clock_s = 0.; n_evals = 0 }

let charge t seconds = t.clock_s <- t.clock_s +. seconds

let measure_cost t (perf : Ft_hw.Perf.t) =
  match t.mode with
  | Model_query -> model_query_cost
  | Hardware_measure ->
      if perf.valid then
        compile_cost +. host_overhead
        +. (float_of_int runs_per_measure *. Float.min perf.time_s 1.0)
      else failed_compile_cost

let compute t cfg =
  let perf = Ft_hw.Cost.evaluate ~flops_scale:t.flops_scale t.space cfg in
  (Ft_hw.Cost.perf_value t.space perf, perf)

let median xs =
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.

(* Resolve the fault plan for one fresh measurement through the
   shared {!Ft_fault.Resilience} loop.  The plan is the fault source:
   each attempt is an independent seeded draw, so every fault is
   retryable.  Every attempt's simulated cost, and every backoff wait,
   accumulates into the point's lane occupancy — failures charge their
   kind-specific cost (a timed-out kernel occupies the lane up to the
   cap, a failed compile only its compile cost).  A quarantined config
   becomes an invalid perf that is cached and never remeasured.
   Outcomes are a pure function of (fault seed, key, attempt), so the
   resolved entry and its cost are independent of pool size and commit
   order.  Hardware faults only strike real measurements: model
   queries (FPGA) and model-invalid configs keep their deterministic
   cost. *)
let fault_resolve t plan key ((value, perf) as computed : float * Ft_hw.Perf.t) =
  if t.mode <> Hardware_measure || not perf.valid then
    (computed, measure_cost t perf)
  else begin
    let run_s = Float.min perf.time_s 1.0 in
    let cost = ref 0. in
    let attempt ~attempt =
      match Ft_fault.Plan.outcome plan ~key ~attempt with
      | Ft_fault.Plan.Sound ->
          cost := !cost +. measure_cost t perf;
          Ok computed
      | Ft_fault.Plan.Noisy ->
          (* The timing jitters: re-run noisy_repeats times on one
             compile and report the median — each repeat charges its
             host round-trip and kernel runs. *)
          let factors =
            Ft_fault.Plan.noise_factors plan ~key ~attempt ~count:noisy_repeats
          in
          Ft_obs.Trace.incr "eval.noisy";
          cost :=
            !cost +. compile_cost
            +. (float_of_int noisy_repeats
               *. (host_overhead +. (float_of_int runs_per_measure *. run_s)));
          Ok (median (List.map (fun f -> value *. f) factors), perf)
      | Ft_fault.Plan.Fault fault ->
          let fail_cost =
            match fault with
            | Ft_fault.Resilience.Compile_error -> failed_compile_cost
            | Ft_fault.Resilience.Timeout cap_s -> compile_cost +. host_overhead +. cap_s
            | Ft_fault.Resilience.Lane_death ->
                (* The device drops off mid-measurement: the host waits
                   it out to the cap, and subsequent waves have one
                   fewer lane. *)
                t.live_lanes <- max 1 (t.live_lanes - 1);
                if Ft_obs.Trace.active () then
                  Ft_obs.Trace.event "pool.lane_dead" [ ("live", Int t.live_lanes) ];
                compile_cost +. host_overhead +. Ft_fault.Plan.timeout_cap_s
            | _ (* Runtime_crash: the plan draws no other fault *) ->
                compile_cost +. host_overhead +. run_s
          in
          cost := !cost +. fail_cost;
          Error { Ft_fault.Resilience.fault; retryable = true }
    in
    let wait s = cost := !cost +. s in
    match Ft_fault.Resilience.run ~prefix:"eval" ~wait attempt with
    | Ok entry -> (entry, !cost)
    | Error note -> ((0., Ft_hw.Perf.invalid note), !cost)
  end

(* Insert a freshly computed point, charging the clock via [charge_one]
   so batch commits can model parallel measurement lanes.  Under fault
   injection the entry committed is the *resolved* one (possibly noisy
   or quarantined) and the cost is the whole retry sequence's. *)
let commit_fresh t ~charge_one key ((_, perf) as computed) =
  let ((value, _) as entry), cost =
    match t.faults with
    | Some plan -> fault_resolve t plan key computed
    | None -> (computed, measure_cost t perf)
  in
  Hashtbl.replace t.cache key entry;
  t.n_evals <- t.n_evals + 1;
  charge_one cost;
  if Ft_obs.Trace.active () then begin
    Ft_obs.Trace.incr "eval.fresh";
    Ft_obs.Trace.event "eval.measure"
      [ ("value", Float value); ("cost_s", Float cost); ("n_evals", Int t.n_evals) ]
  end;
  entry

(* Returns both the performance value E and the full model result of a
   point with a single cache lookup per call; repeated queries of the
   same point hit the cache. *)
let measure_full t cfg =
  let key = Ft_schedule.Config.key cfg in
  match Hashtbl.find_opt t.cache key with
  | Some entry ->
      charge t cache_hit_cost;
      Ft_obs.Trace.incr "eval.cache_hit";
      entry
  | None -> commit_fresh t ~charge_one:(charge t) key (compute t cfg)

let measure t cfg = fst (measure_full t cfg)
let perf_of t cfg = snd (measure_full t cfg)

(* Cache lookup for result assembly: unlike [measure_full], charges
   nothing and bumps no counter, so reporting never perturbs the
   simulated clock or the telemetry. *)
let peek t cfg = Hashtbl.find_opt t.cache (Ft_schedule.Config.key cfg)

(* -- Batched evaluation ---------------------------------------------

   [prepare] runs the pure cost-model queries of a candidate list on
   the domain pool; [commit] then folds each point into the evaluator
   sequentially, in whatever order the caller chooses.  Keeping the
   commit sequential is what makes search results independent of the
   pool size: cache contents, eval counts, and clock charges are
   decided by commit order alone.

   The simulated clock models the paper's multi-device measurement:
   fresh points are grouped into waves of [n_parallel] in commit
   order, and each wave charges the max measurement cost over its
   lanes (all devices measure concurrently; the wave takes as long as
   its slowest lane).  With [n_parallel = 1] every wave is a single
   point, which reproduces the sequential accounting exactly.  Cache
   hits charge their (tiny) fixed cost immediately. *)

type batch = {
  computed : (string, float * Ft_hw.Perf.t) Hashtbl.t;
  mutable wave_len : int;
  mutable wave_max : float;
}

let pool_of t = match t.pool with Some p -> p | None -> Ft_par.Pool.default ()

(* Candidates travel as (config, key) pairs so the expensive
   [Config.key] is built exactly once per point across the whole
   prepare/commit cycle. *)
let prepare t keyed =
  let fresh = Hashtbl.create 64 in
  let to_compute =
    List.filter
      (fun (_, key) ->
        if Hashtbl.mem t.cache key || Hashtbl.mem fresh key then false
        else begin
          Hashtbl.add fresh key ();
          true
        end)
      keyed
  in
  let computed = Hashtbl.create (List.length to_compute) in
  let entries =
    match (t.dispatch, to_compute) with
    | Some d, _ :: _ -> d to_compute  (* external backend; same pure results *)
    | _, ([] | [ _ ]) -> List.map (fun (cfg, _) -> compute t cfg) to_compute
    | _ -> Ft_par.Pool.map (pool_of t) (fun (cfg, _) -> compute t cfg) to_compute
  in
  List.iter2
    (fun (_, key) entry -> Hashtbl.replace computed key entry)
    to_compute entries;
  if Ft_obs.Trace.active () then begin
    Ft_obs.Trace.event "eval.batch"
      [ ("n", Int (List.length keyed)); ("fresh", Int (List.length to_compute)) ];
    Ft_obs.Trace.gauge "eval.batch_size" (float_of_int (List.length keyed))
  end;
  { computed; wave_len = 0; wave_max = 0. }

let flush t batch =
  if batch.wave_len > 0 then begin
    charge t batch.wave_max;
    if Ft_obs.Trace.active () then
      Ft_obs.Trace.event "eval.wave"
        [
          ("n", Int batch.wave_len);
          ("cost_s", Float batch.wave_max);
          ("clock_s", Float t.clock_s);
        ];
    batch.wave_len <- 0;
    batch.wave_max <- 0.
  end

(* Waves fill up to the *live* lane count: lane deaths injected by the
   fault plan shrink every subsequent wave (graceful degradation).
   Without faults [live_lanes] stays at [n_parallel] forever. *)
let wave_push t batch cost =
  batch.wave_len <- batch.wave_len + 1;
  batch.wave_max <- Float.max batch.wave_max cost;
  if batch.wave_len >= t.live_lanes then flush t batch

let commit t batch (cfg, key) =
  match Hashtbl.find_opt t.cache key with
  | Some (value, _) ->
      charge t cache_hit_cost;
      Ft_obs.Trace.incr "eval.cache_hit";
      value
  | None ->
      let entry =
        match Hashtbl.find_opt batch.computed key with
        | Some entry -> entry
        | None -> compute t cfg  (* straggler not in the prepared set *)
      in
      fst (commit_fresh t ~charge_one:(wave_push t batch) key entry)

let measure_batch t cfgs =
  let keyed = List.map (fun cfg -> (cfg, Ft_schedule.Config.key cfg)) cfgs in
  let batch = prepare t keyed in
  let out = List.map (fun ((cfg, _) as point) -> (cfg, commit t batch point)) keyed in
  flush t batch;
  out

let clock t = t.clock_s
let n_evals t = t.n_evals
let live_lanes t = t.live_lanes
