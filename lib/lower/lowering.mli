(** Schedule application: config + mini-graph -> explicit loop nest. *)

(** Apply a schedule point to the space's graph: every split axis is
    indexed by reconstructing it from its sub-variables
    ([i = ((i.0 * f1 + i.1) * f2 + i.2) ...]), and with [inline] set
    reduce-free producer bodies are inlined transitively into the
    compute node's body. *)
val lower : Ft_schedule.Space.t -> Ft_schedule.Config.t -> Loopnest.program
