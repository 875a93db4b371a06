(** Shared machinery for hand-tuned-library baselines: fixed,
    shape-generic schedules (optionally best-of-candidate-set) on the
    same hardware models FlexTensor searches over.  Single schedules
    come from {!Ft_schedule.Heuristics}. *)

(** Evaluate candidates and keep the best (library dispatch). *)
val best_of :
  ?flops_scale:float ->
  Ft_schedule.Space.t ->
  Ft_schedule.Config.t list ->
  Ft_schedule.Config.t * Ft_hw.Perf.t

val gpu_candidates : Ft_schedule.Space.t -> Ft_schedule.Config.t list
val cpu_candidates : Ft_schedule.Space.t -> Ft_schedule.Config.t list
