(** Schedule application: config + mini-graph -> explicit loop nest. *)

(** Reconstruction of the original axis index from its split
    sub-variables. *)
val axis_index : Ft_ir.Op.axis -> int array -> Ft_ir.Expr.iexpr

(** Transitively inline reduce-free producer bodies into an
    expression. *)
val inline_expr : Ft_ir.Op.graph -> Ft_ir.Expr.texpr -> Ft_ir.Expr.texpr

(** Apply a schedule point to the space's graph. *)
val lower : Ft_schedule.Space.t -> Ft_schedule.Config.t -> Loopnest.program
