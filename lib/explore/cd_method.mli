(** Coordinate-descent fine-tuning: greedy single-knob descent from
    the incumbent, with a uniform random hop whenever the incumbent's
    whole neighborhood has already been visited. *)

val policy : Search_loop.policy
