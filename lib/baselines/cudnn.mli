(** cuDNN baseline: library-style candidate schedules plus algorithmic
    dispatch (Winograd, implicit GEMM, kernel reuse). *)

type verdict = {
  config : Ft_schedule.Config.t;
  perf : Ft_hw.Perf.t;
  algo : string;
}

(** cuDNN covers convolutions only (the paper compares matmuls against
    cuBLAS instead). *)
val supported : Ft_ir.Op.graph -> bool

val evaluate : Ft_schedule.Target.t -> Ft_ir.Op.graph -> verdict
