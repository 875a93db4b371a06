(* Hand-optimized OpenCL FPGA baseline following Zhang et al. (FPGA'15,
   reference [65] of the paper): a fixed accelerator design point —
   64 PEs, modest input tiles, 2-way memory partitioning — evaluated on
   the same analytical FPGA model. *)

let evaluate target graph =
  let space = Ft_schedule.Space.make graph target in
  let config =
    Ft_schedule.Heuristics.fpga_config space ~pe_per_axis:24 ~tile:4 ~partition_id:3
  in
  (config, Ft_hw.Cost.evaluate space config)
