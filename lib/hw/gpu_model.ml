open Ft_schedule

(* Analytical GPU performance model.

   Level conventions (Config doc): spatial factors are
   [blockIdx; vthread; threadIdx; inner-serial], reduce factors are
   [outer; middle; inner], where the reduce-inner factor is the depth
   of one shared-memory staging step.

   The model combines:
   - compute time = flops / (peak * efficiency), where efficiency
     multiplies warp utilization, SM wave quantization, a latency-hiding
     score (occupancy + per-thread ILP + unrolling), an accumulator-
     locality factor from the loop-order template, and a register-spill
     penalty;
   - memory time = global traffic (per-block staging loads, floored at
     the compulsory volume) / (bandwidth * coalescing efficiency).

   Hard resource limits (threads per block, shared memory per block,
   at least one resident block) make the schedule invalid. *)

let log2 x = log x /. log 2.

let last_of arr = arr.(Array.length arr - 1)

let evaluate ?(flops_scale = 1.0) (spec : Target.gpu_spec) (space : Space.t)
    (cfg : Config.t) =
  let flops = space.flops in
  let threads = Config.product_level cfg.spatial 2 in
  let blocks = Config.product_level cfg.spatial 0 in
  let vthreads = Config.product_level cfg.spatial 1 in
  let inner = Config.product_level cfg.spatial 3 in
  let per_thread_out = vthreads * inner in
  if threads > spec.max_threads_per_block then
    Perf.invalid
      (lazy
        (Printf.sprintf "%d threads exceed %d per block" threads
           spec.max_threads_per_block))
  else
    let n_stages = Config.product_level cfg.reduce 0 * Config.product_level cfg.reduce 1 in
    let tiles = Footprint.widths cfg ~spatial_levels:[ 1; 2; 3 ] ~reduce_levels:[ 2 ] in
    let stage_elems = Footprint.total tiles space.reads in
    let smem_bytes = stage_elems * 4 in
    if smem_bytes > spec.shared_kb_per_block * 1024 then
      Perf.invalid
        (lazy (Printf.sprintf "%d B shared memory exceed block limit" smem_bytes))
    else
      let unroll = Space.unroll_depth cfg in
      let regs_per_thread = 24 + (2 * per_thread_out) + (unroll / 8) in
      let spill = regs_per_thread > 255 in
      let regs = min 255 regs_per_thread in
      let smem_blocks =
        if smem_bytes = 0 then spec.max_blocks_per_sm
        else spec.shared_kb_per_sm * 1024 / smem_bytes
      in
      let blocks_per_sm =
        min
          (min spec.max_blocks_per_sm smem_blocks)
          (min (spec.max_threads_per_sm / threads) (spec.regs_per_sm / (regs * threads)))
      in
      if blocks_per_sm = 0 then Perf.invalid (lazy "block exceeds per-SM resources")
      else
        let occupancy =
          Float.min 1.
            (float_of_int (blocks_per_sm * threads) /. float_of_int spec.max_threads_per_sm)
        in
        let warp_util =
          float_of_int threads
          /. float_of_int (spec.warp * Ft_util.Mathx.ceil_div threads spec.warp)
        in
        let wave_slots = spec.sms * blocks_per_sm in
        let machine_util =
          float_of_int blocks
          /. float_of_int (Ft_util.Mathx.ceil_div blocks wave_slots * wave_slots)
        in
        let ilp = Float.min 1. (float_of_int per_thread_out /. 8.) in
        let latency_hiding =
          Float.min 1.
            ((0.25 +. (0.75 *. occupancy))
            *. (0.55 +. (0.45 *. ilp))
            *. (1. +. (0.04 *. log2 (float_of_int unroll))))
        in
        let perm = Config.order_perm cfg.order_id in
        let order_factor =
          if perm.(0) = 0 then 1.0 else if perm.(2) = 0 then 0.88 else 0.94
        in
        let spill_factor = if spill then 0.6 else 1.0 in
        let efficiency =
          warp_util *. machine_util *. latency_hiding *. order_factor *. spill_factor
        in
        let peak = Target.peak_gflops (Target.Gpu spec) *. 1e9 in
        let compute_time =
          float_of_int flops *. flops_scale /. (peak *. efficiency)
        in
        (* Global traffic: every block loads each staging tile once per
           reduce stage; cannot go below the compulsory volume. *)
        let out_bytes = space.output_bytes in
        let staged_bytes = blocks * n_stages * smem_bytes in
        let compulsory = space.input_bytes + out_bytes in
        let producer_bytes = if cfg.inline then 0 else space.producer_bytes in
        let traffic = max (staged_bytes + out_bytes) compulsory + producer_bytes in
        let last_thread = (last_of cfg.spatial).(2) in
        let last_inner = (last_of cfg.spatial).(3) in
        let coalesce =
          Ft_util.Mathx.clampf 0.25 1.0
            (float_of_int (last_thread * last_inner) /. float_of_int spec.warp)
        in
        let mem_time = float_of_int traffic /. (spec.mem_bw_gb *. 1e9 *. coalesce) in
        let launches = if cfg.inline then 1 else 1 + space.n_producers in
        let time_s =
          Float.max compute_time mem_time +. (float_of_int launches *. 5e-6)
        in
        Perf.make ~flops ~time_s
          ~note:
            (lazy
              (Printf.sprintf "occ=%.2f eff=%.2f %s" occupancy efficiency
                 (if compute_time >= mem_time then "compute-bound" else "memory-bound")))
