(** Coordinate-descent fine-tuning: greedy single-knob descent from
    the incumbent, with a uniform random hop whenever the incumbent's
    whole neighborhood has already been visited. *)

(** The {!Method} table's entry point: run on an explicit parameter
    record. *)
val search_params :
  Search_loop.params -> Ft_schedule.Space.t -> Driver.result
