let evaluate ?flops_scale (space : Ft_schedule.Space.t) cfg =
  if not (Ft_schedule.Space.valid space cfg) then
    Perf.invalid (lazy "config outside the schedule space")
  else
    match space.target with
    | Ft_schedule.Target.Gpu spec -> Gpu_model.evaluate ?flops_scale spec space cfg
    | Ft_schedule.Target.Cpu spec -> Cpu_model.evaluate ?flops_scale spec space cfg
    | Ft_schedule.Target.Fpga spec -> Fpga_model.evaluate ?flops_scale spec space cfg

(* Search objective: throughput on the true FLOPs, or — for zero-FLOP
   operators like shift — effective bandwidth (GB/s moved). *)
let perf_value (space : Ft_schedule.Space.t) (perf : Perf.t) =
  if not perf.valid then 0.
  else if space.flops > 0 then perf.gflops
  else float_of_int (space.output_bytes + space.input_bytes) /. perf.time_s /. 1e9
