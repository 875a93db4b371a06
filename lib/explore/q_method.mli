(** FlexTensor's Q-method: simulated-annealing starting points +
    Q-learning direction selection (§5.1). *)

val policy : Search_loop.policy
