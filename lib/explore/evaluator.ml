module Tbl = Ft_schedule.Config.Tbl

type dispatch =
  (Ft_schedule.Config.t * string) list -> (float * Ft_hw.Perf.t) list

type measurer = Ft_schedule.Config.t -> Ft_hw.Perf.t

type t = {
  space : Ft_schedule.Space.t;
  model_query : bool;  (* FPGA: points cost a model query, never a measurement *)
  dispatch : dispatch option;  (* external backend for batched fresh points *)
  faults : Ft_fault.Plan.t option;  (* Some only when the plan injects faults *)
  mutable live_lanes : int;  (* simulated devices minus injected lane deaths *)
  mutable clock_s : float;
  mutable n_evals : int;
}

let compile_cost = 0.3
let host_overhead = 0.05
let runs_per_measure = 3
let failed_compile_cost = 0.1
let model_query_cost = 0.002
let cache_hit_cost = 0.0005

(* A noisy timing is re-run this many times and reported as the median. *)
let noisy_repeats = 3

let create ?(n_parallel = 1) ?dispatch ?faults space =
  if n_parallel < 1 then invalid_arg "Evaluator.create: n_parallel must be >= 1";
  (* On CPU/GPU the paper measures on the device (compile + 3 runs +
     host overhead); on FPGA synthesis is far too slow, so it queries
     the analytical model (§5.2).  The simulated clock charges each
     kind of point its own cost so that exploration-time comparisons
     are meaningful. *)
  let model_query =
    match space.Ft_schedule.Space.target with
    | Ft_schedule.Target.Fpga _ -> true
    | Ft_schedule.Target.Gpu _ | Ft_schedule.Target.Cpu _ -> false
  in
  let faults =
    Option.bind faults (fun plan ->
        if Ft_fault.Plan.injects_measurement_faults plan then Some plan else None)
  in
  { space; model_query; dispatch; faults; live_lanes = n_parallel; clock_s = 0.; n_evals = 0 }

let charge t seconds = t.clock_s <- t.clock_s +. seconds

let measure_cost t (perf : Ft_hw.Perf.t) =
  if t.model_query then model_query_cost
  else if perf.valid then
    compile_cost +. host_overhead
    +. (float_of_int runs_per_measure *. Float.min perf.time_s 1.0)
  else failed_compile_cost

let compute t cfg =
  let perf = Ft_hw.Cost.evaluate t.space cfg in
  (Ft_hw.Cost.perf_value t.space perf, perf)

(* Resolve the fault plan for one fresh measurement through the
   shared {!Ft_fault.Resilience} loop.  The plan is the fault source:
   each attempt is an independent seeded draw, so every fault is
   retryable.  Every attempt's simulated cost, and every backoff wait,
   accumulates into the point's lane occupancy — failures charge their
   kind-specific cost (a timed-out kernel occupies the lane up to the
   cap, a failed compile only its compile cost).  A quarantined config
   becomes an invalid perf with value 0; it enters H like any point,
   so it is never remeasured.
   Outcomes are a pure function of (fault seed, key, attempt), so the
   resolved entry and its cost are independent of commit order.  Hardware faults only strike real measurements: model
   queries (FPGA) and model-invalid configs keep their deterministic
   cost. *)
let fault_resolve t plan key ((value, perf) as computed : float * Ft_hw.Perf.t) =
  if t.model_query || not perf.valid then
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
          let timings = Array.of_list (List.map (fun f -> value *. f) factors) in
          Array.sort Float.compare timings;
          Ok (Ft_util.Stats.median timings, perf)
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
    | Error note -> ((0., Ft_hw.Perf.invalid (Lazy.from_val note)), !cost)
  end

(* One point.  A point the caller [known]s is a hit: a fixed cost,
   charged at once.  A fresh point is computed by [compute] and charged
   via [charge_one], so batch commits can model parallel measurement
   lanes; under fault injection the entry returned is the *resolved*
   one (possibly noisy or quarantined) and the cost is the whole retry
   sequence's. *)
let measure_with t ~known ~charge_one ~compute cfg =
  if known cfg then begin
    charge t cache_hit_cost;
    Ft_obs.Trace.incr "eval.cache_hit";
    None
  end
  else
    let ((_, perf) as computed) = compute cfg in
    let ((value, _) as entry), cost =
      match t.faults with
      | Some plan -> fault_resolve t plan (Ft_schedule.Config.compute_key cfg) computed
      | None -> (computed, measure_cost t perf)
    in
    t.n_evals <- t.n_evals + 1;
    charge_one cost;
    if Ft_obs.Trace.active () then begin
      Ft_obs.Trace.incr "eval.fresh";
      Ft_obs.Trace.event "eval.measure"
        [ ("value", Float value); ("cost_s", Float cost); ("n_evals", Int t.n_evals) ]
    end;
    Some entry

let measure t ~known cfg = measure_with t ~known ~charge_one:(charge t) ~compute:(compute t) cfg

let model t cfg = Ft_hw.Cost.evaluate t.space cfg

(* -- Batched evaluation ---------------------------------------------

   The simulated clock models the paper's multi-device measurement:
   fresh points are grouped into waves in commit order, and each wave
   charges the max measurement cost over its lanes (all devices
   measure concurrently; the wave takes as long as its slowest lane).
   Waves fill up to the *live* lane count, so lane deaths injected by
   the fault plan shrink every subsequent wave; with [n_parallel = 1]
   every wave is a single point, which reproduces the sequential
   accounting exactly. *)

(* With a dispatch (the benchmark's traced pass), the batch's unknown
   first occurrences go to it in one call, as [(config, key)] pairs.
   The caller's set of known points only grows, so every point still
   unknown at its commit is in the table. *)
let dispatch_compute t ~known cfgs =
  match t.dispatch with
  | None -> compute t
  | Some dispatch ->
      let todo = Tbl.create 64 in
      let fresh =
        List.filter
          (fun cfg ->
            let first = not (known cfg || Tbl.mem todo cfg) in
            if first then Tbl.add todo cfg ();
            first)
          cfgs
      in
      let computed = Tbl.create (List.length fresh) in
      if fresh <> [] then
        List.iter2 (Tbl.replace computed) fresh
          (dispatch
             (List.map (fun cfg -> (cfg, Ft_schedule.Config.compute_key cfg)) fresh));
      Tbl.find computed

let commit_batch t ~known ~should_stop cfgs on_commit =
  let compute = dispatch_compute t ~known cfgs in
  if Ft_obs.Trace.active () then
    Ft_obs.Trace.event "eval.batch" [ ("n", Int (List.length cfgs)) ];
  let wave_len = ref 0 and wave_max = ref 0. in
  let flush () =
    if !wave_len > 0 then begin
      charge t !wave_max;
      if Ft_obs.Trace.active () then
        Ft_obs.Trace.event "eval.wave"
          [ ("n", Int !wave_len); ("cost_s", Float !wave_max); ("clock_s", Float t.clock_s) ];
      wave_len := 0;
      wave_max := 0.
    end
  in
  let charge_one cost =
    incr wave_len;
    wave_max := Float.max !wave_max cost;
    if !wave_len >= t.live_lanes then flush ()
  in
  let rec go = function
    | cfg :: rest when not (should_stop ()) ->
        on_commit cfg (measure_with t ~known ~charge_one ~compute cfg);
        go rest
    | _ -> ()
  in
  go cfgs;
  flush ()

let clock t = t.clock_s
let n_evals t = t.n_evals
