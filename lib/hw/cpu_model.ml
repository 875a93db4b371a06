open Ft_schedule

(* Analytical CPU performance model.

   Level conventions: spatial factors are
   [parallel-outer; middle tile; inner tile; vector], reduce factors
   [outer; middle; inner].  The outer level (plus the middle level when
   [fuse_levels = 2]) is fused into a single OpenMP-style parallel
   loop.

   compute time = flops / (peak * load-balance * SIMD efficiency *
   unroll bonus * loop-order accumulator factor); memory time sums a
   DRAM term (per-L2-tile staging traffic, floored at compulsory) and
   an aggregate L2->L1 term, with penalties when tiles overflow their
   cache level. *)

let evaluate ?(flops_scale = 1.0) (spec : Target.cpu_spec) (space : Space.t)
    (cfg : Config.t) =
  let flops = space.flops in
  let parallelism =
    Config.product_level cfg.spatial 0
    * (if cfg.fuse_levels >= 2 then Config.product_level cfg.spatial 1 else 1)
  in
  let chunks = Ft_util.Mathx.ceil_div parallelism spec.cores * spec.cores in
  let load_balance = float_of_int parallelism /. float_of_int chunks in
  let last = cfg.spatial.(Array.length cfg.spatial - 1) in
  let vector_len = last.(3) in
  let simd =
    if not cfg.vectorize then 1. /. float_of_int spec.vector_width
    else if vector_len mod spec.vector_width = 0 then 1.0
    else if vector_len < spec.vector_width then
      float_of_int vector_len /. float_of_int spec.vector_width
    else 0.7
  in
  let unroll = Space.unroll_depth cfg in
  let unroll_bonus =
    Float.min 1.0 (0.75 +. (0.085 *. Ft_util.Mathx.log2 (float_of_int unroll)))
  in
  let perm = Config.order_perm cfg.order_id in
  let order_factor =
    if perm.(0) = 0 then 1.0 else if perm.(2) = 0 then 0.88 else 0.93
  in
  let peak = Target.peak_gflops (Target.Cpu spec) *. 1e9 in
  let compute_time =
    float_of_int flops *. flops_scale
    /. (peak *. load_balance *. simd *. unroll_bonus *. order_factor)
  in
  (* Cache model. L1 tile: innermost spatial tiles with the reduce-inner
     depth; L2 tile: everything below the parallel level with the
     reduce middle+inner depth. *)
  let l1_tiles = Footprint.widths cfg ~spatial_levels:[ 2; 3 ] ~reduce_levels:[ 2 ] in
  let l2_tiles = Footprint.widths cfg ~spatial_levels:[ 1; 2; 3 ] ~reduce_levels:[ 1; 2 ] in
  let l1_elems = Footprint.total l1_tiles space.reads in
  let l2_elems = Footprint.total l2_tiles space.reads in
  let l1_overflow = l1_elems * 4 > spec.l1_kb * 1024 in
  let l2_overflow = l2_elems * 4 > spec.l2_kb * 1024 in
  let out_bytes = space.output_bytes in
  let compulsory = out_bytes + space.input_bytes in
  let n_l2_tiles =
    Config.product_level cfg.spatial 0 * Config.product_level cfg.reduce 0
  in
  let dram_traffic = max (n_l2_tiles * l2_elems * 4) compulsory + out_bytes in
  let dram_traffic = if l2_overflow then dram_traffic * 3 / 2 else dram_traffic in
  (* Working sets that fit the shared L3 are streamed from DRAM once,
     whatever the tiling does. *)
  let dram_traffic =
    if compulsory <= spec.l3_mb * 1024 * 1024 then min dram_traffic (compulsory * 2)
    else dram_traffic
  in
  let producer_bytes = if cfg.inline then 0 else space.producer_bytes in
  let inner_iters =
    space.spatial_points
    / max 1 (Config.product_level cfg.spatial 2 * Config.product_level cfg.spatial 3)
    * (space.reduce_points / max 1 (Config.product_level cfg.reduce 2))
  in
  let l2_traffic = inner_iters * l1_elems * 4 in
  let l2_traffic = if l1_overflow then l2_traffic * 2 else l2_traffic in
  let mem_time =
    (float_of_int (dram_traffic + producer_bytes) /. (spec.mem_bw_gb *. 1e9))
    +. (float_of_int l2_traffic /. (spec.l2_bw_gb *. 1e9))
  in
  let time_s = Float.max compute_time mem_time +. 20e-6 in
  Perf.make ~flops ~time_s
    ~note:
      (lazy
        (Printf.sprintf "par=%d simd=%.2f %s" parallelism simd
           (if compute_time >= mem_time then "compute-bound" else "memory-bound")))
