open Ft_schedule

(* FPGA performance model — the paper's own §5.2 formula:

     execution_time = (workload / #PE) * max(R, C, W)

   realized for the three-stage pipeline of Fig. 4(c).  The design
   point derived from a config: spatial level 2 factors multiply into
   the PE-parallel lanes, levels 2+3 form the per-round output tile,
   levels 0+1 count the rounds; the memory-partition knob sets how many
   operand words per cycle the BRAM banks can feed the PE array
   (initiation interval grows when the array is underfed).

   Hard limits: DSP budget (dsp_per_mac slices per lane) and BRAM
   capacity for the double-buffered input/output tiles. *)

let bank_words_per_cycle = 32

let evaluate ?(flops_scale = 1.0) (spec : Target.fpga_spec) (space : Space.t)
    (cfg : Config.t) =
  let flops = space.flops in
  let pes = Config.product_level cfg.spatial 2 in
  if pes * spec.dsp_per_mac > spec.dsps then
    Perf.invalid (lazy (Printf.sprintf "%d PEs exceed DSP budget" pes))
  else
    let tile_outputs =
      Array.fold_left (fun acc parts -> acc * parts.(2) * parts.(3)) 1 cfg.spatial
    in
    let rounds =
      Array.fold_left (fun acc parts -> acc * parts.(0) * parts.(1)) 1 cfg.spatial
    in
    let tiles = Footprint.widths cfg ~spatial_levels:[ 2; 3 ] ~reduce_levels:[ 0; 1; 2 ] in
    let in_elems = Footprint.total tiles space.reads in
    (* Double buffering: input tile twice (ping-pong) plus output tile. *)
    let bram_bytes = ((2 * in_elems) + tile_outputs) * 4 in
    if bram_bytes > spec.bram_kb * 1024 then
      Perf.invalid (lazy (Printf.sprintf "%d B exceed BRAM capacity" bram_bytes))
    else
      let clock = spec.clock_mhz *. 1e6 in
      let macs_per_round =
        float_of_int (tile_outputs * space.reduce_points)
        *. float_of_int (max 1 (space.body_flops / 2))
        *. flops_scale
      in
      let feed_words = Space.partition cfg * bank_words_per_cycle in
      let ii = Float.max 1. (float_of_int pes /. float_of_int feed_words) in
      let compute = macs_per_round *. ii /. (float_of_int pes *. clock) in
      let read = float_of_int (in_elems * 4) /. (spec.ddr_bw_gb *. 1e9) in
      let write = float_of_int (tile_outputs * 4) /. (spec.ddr_bw_gb *. 1e9) in
      let stage = Float.max compute (Float.max read write) in
      let time_s =
        (float_of_int rounds *. stage) +. read +. compute +. write
      in
      Perf.make ~flops ~time_s
        ~note:
          (lazy
            (Printf.sprintf "pe=%d ii=%.1f %s" pes ii
               (if compute >= read && compute >= write then "compute-bound"
                else "io-bound")))
