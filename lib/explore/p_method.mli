(** The P-method baseline of §6.5: annealing starting points with
    exhaustive direction evaluation (no Q-learning). *)

val policy : Search_loop.policy
