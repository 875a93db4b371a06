(** Naive reference execution of operators and graphs — the ground
    truth against which lowered/scheduled loop nests are checked. *)

(** Evaluate a scalar expression under buffer and index environments.
    Select is lazy so padding accesses never go out of bounds. *)
val eval_texpr :
  Buffer_env.t -> (string * int) list -> Ft_ir.Expr.texpr -> float

val combine_value : Ft_ir.Op.combine -> float -> float -> float

(** Execute one node, allocating its output in the environment. *)
val run_op : Buffer_env.t -> Ft_ir.Op.t -> unit

(** Execute a whole graph; returns the output buffer's data. *)
val run_graph : Buffer_env.t -> Ft_ir.Op.graph -> float array

(** Fresh environment with random input tensors. *)
val random_env : Ft_util.Rng.t -> Ft_ir.Op.graph -> Buffer_env.t
