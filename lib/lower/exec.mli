(** Sequential execution of lowered programs over real float buffers. *)

(** Allocate the program's tensors in [env] (inputs must already be
    bound) and run it. *)
val run : Ft_interp.Buffer_env.t -> Loopnest.program -> unit
