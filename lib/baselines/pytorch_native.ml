(* PyTorch's native (non-cuDNN) kernels: one generic implementation per
   operator with modest tiling and framework dispatch overhead; no
   algorithmic specialization.  This is what the paper compares against
   when cuDNN support is missing or poor (GMV/GMM/BIL/DEP). *)

let overhead_scale = 1.15

let gpu_evaluate target graph =
  let space = Ft_schedule.Space.make graph target in
  let config =
    Ft_schedule.Heuristics.gpu_config space ~threads_per_axis:8 ~vthread:1 ~inner:1
      ~rtile:4
  in
  (config, Ft_hw.Cost.evaluate ~flops_scale:overhead_scale space config)

let cpu_evaluate target graph =
  let space = Ft_schedule.Space.make graph target in
  let config =
    Ft_schedule.Heuristics.cpu_config space ~mid:2 ~inner:2 ~vec:4 ~rtile:4
  in
  (config, Ft_hw.Cost.evaluate ~flops_scale:overhead_scale space config)

let evaluate target graph =
  match target with
  | Ft_schedule.Target.Gpu _ -> gpu_evaluate target graph
  | Ft_schedule.Target.Cpu _ -> cpu_evaluate target graph
  | Ft_schedule.Target.Fpga _ ->
      invalid_arg "Pytorch_native.evaluate: no FPGA backend"
