(** PyTorch native-kernel baseline: one generic schedule, framework
    overhead, no algorithmic specialization. *)

val evaluate :
  Ft_schedule.Target.t -> Ft_ir.Op.graph -> Ft_schedule.Config.t * Ft_hw.Perf.t
