(** AdaDelta optimizer (Zeiler 2012), as used to train the paper's
    Q-network (§5.1).  Operates on flat [Bigarray] float64 vectors,
    one dense-layer row at a time. *)

type t

(** [create n] is zeroed state for [n] parameters; the decay rate is
    0.95 and the smoothing term 1e-6. *)
val create : int -> t

(** [update_row t ~params ~off ~d ~pre ~x ~din]: one output row of a
    dense layer's training step, backward product and update in one
    pass, bit-for-bit AdaDelta on gradients accumulated into zeroed
    buffers.  The row is [params.(off .. off+n)], [n = Array.length x]:
    [n] weights, then the bias; its gradient is [d *. x.(i)] (bias:
    [d]); [din.(i)] accumulates [w_i *. d] with the pre-update weight;
    [pre] is the row's pre-activation over [x].  Zero gradients only
    decay the averages: no square root, no division.  Raises
    [Invalid_argument], changing nothing, when [params] is not the
    state's size, the row does not fit in [params], or [din] is
    shorter than [x]. *)
val update_row : t -> params:Ft_linalg.Linalg.vec -> off:int -> d:float -> pre:float ->
  x:float array -> din:float array -> unit
