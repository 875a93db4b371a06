(** AdaDelta optimizer (Zeiler 2012), as used to train the paper's
    Q-network (§5.1).  Operates on flat [Bigarray] float64 vectors,
    one whole dense layer at a time. *)

type t

(** [create n] is zeroed state for [n] parameters; the decay rate is
    0.95 and the smoothing term 1e-6. *)
val create : int -> t

(** [update_layer t ~params ~debt ~last ~dout ~pre ~x ~din]: a whole
    dense layer's training step, backward product and update in one
    pass, bit-for-bit AdaDelta on gradients accumulated into zeroed
    buffers.  [params] holds the layer's [n_out = Array.length debt]
    rows back to back, each [n = Array.length x] weights then its bias.
    Row [o]'s output gradient [d] is [dout.(o)] where [last] (a linear
    layer) or [pre.(o) > 0.] (ReLU), and [0.] elsewhere; its weights'
    gradients are [d *. x.(i)] (bias: [d]), and [din.(i)] accumulates
    [w_i *. d] with the pre-update weight.

    A row that would only decay finite state defers the decay:
    [debt.(o)] counts the decays row [o] owes ([-1] while its state is
    not finite), and the row pays them, in order, before its next other
    step.  A fresh state's debt is all zeros, and a state stepped here
    must always be stepped here with the same [debt].  Raises
    [Invalid_argument], changing nothing, when [params] is not the
    state's size or not [n_out] rows of [n + 1], [dout] or [pre] does
    not have [n_out] entries, or [din] is shorter than [x]. *)
val update_layer : t -> params:Ft_linalg.Linalg.vec -> debt:int array -> last:bool ->
  dout:float array -> pre:float array -> x:float array -> din:float array -> unit
