(** FlexTensor's Q-method: simulated-annealing starting points +
    Q-learning direction selection (§5.1). *)

(** The {!Method} table's entry point: run on an explicit parameter
    record. *)
val search_params :
  Search_loop.params -> Ft_schedule.Space.t -> Driver.result
