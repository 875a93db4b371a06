(** The P-method baseline of §6.5: annealing starting points with
    exhaustive direction evaluation (no Q-learning). *)

(** The {!Method} table's entry point: run on an explicit parameter
    record. *)
val search_params :
  Search_loop.params -> Ft_schedule.Space.t -> Driver.result
