(** Uniform random search — ablation floor.  [params.n_trials] is the
    literal number of random draws (the {!Method} row multiplies it by
    {!Search_loop.n_starts} to keep the historical [optimize] budget). *)

val policy : Search_loop.policy
