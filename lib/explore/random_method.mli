(** Uniform random search — ablation floor. *)

(** The {!Method} table's entry point: run on an explicit parameter
    record.  [params.n_trials] is the literal number of random draws
    (the table's row multiplies by {!Search_loop.n_starts} to keep the
    historical [optimize] budget). *)
val search_params :
  Search_loop.params -> Ft_schedule.Space.t -> Driver.result
