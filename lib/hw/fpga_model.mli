(** FPGA analytical performance model — the paper's §5.2
    [workload/#PE * max(R, C, W)] formula for a three-stage pipeline
    under VU9P DSP/BRAM/DDR constraints. *)

val evaluate :
  ?flops_scale:float ->
  Ft_schedule.Target.fpga_spec ->
  Ft_schedule.Space.t ->
  Ft_schedule.Config.t ->
  Perf.t
