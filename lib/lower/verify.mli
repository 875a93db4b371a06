(** Semantics preservation: lowered-and-scheduled execution must match
    the naive reference on random inputs (seed 2020) to within 1e-4
    max absolute difference. *)

val check : Ft_schedule.Space.t -> Ft_schedule.Config.t -> (unit, string) result
