type dispatch =
  (Ft_schedule.Config.t * string) list -> (float * Ft_hw.Perf.t) list

type measurer = Ft_schedule.Config.t -> Ft_hw.Perf.t

type t = {
  space : Ft_schedule.Space.t;
  model_query : bool;  (* FPGA: points cost a model query, never a measurement *)
  faults : Ft_fault.Plan.t option;  (* Some only when the plan injects faults *)
}

let compile_cost = 0.3
let host_overhead = 0.05
let runs_per_measure = 3
let failed_compile_cost = 0.1
let model_query_cost = 0.002
let hit_cost = 0.0005

(* A noisy timing is re-run this many times and reported as the median. *)
let noisy_repeats = 3

let create ?faults space =
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
  { space; model_query; faults }

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
let fault_resolve t ~lane_dead plan key ((value, perf) as computed : float * Ft_hw.Perf.t) =
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
                lane_dead ();
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

let price t ~lane_dead cfg ((_, perf) as computed) =
  match t.faults with
  | Some plan -> fault_resolve t ~lane_dead plan (Ft_schedule.Config.compute_key cfg) computed
  | None -> (computed, measure_cost t perf)
