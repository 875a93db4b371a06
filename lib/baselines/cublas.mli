(** cuBLAS baseline for the matmul-family operators. *)

val supported : Ft_ir.Op.graph -> bool

val evaluate :
  Ft_schedule.Target.t -> Ft_ir.Op.graph -> Ft_schedule.Config.t * Ft_hw.Perf.t
