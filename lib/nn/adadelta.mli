(** AdaDelta optimizer (Zeiler 2012), as used to train the paper's
    Q-network (§5.1), one whole dense layer of flat [Bigarray] float64
    vectors at a time: {!accumulate} adds each sample's gradient into
    the state's sums, {!step} moves the parameters once by the mean. *)

type t

(** [create n] is zeroed state for [n] parameters; the decay rate is
    0.95 and the smoothing term 1e-6. *)
val create : int -> t

(** [accumulate t ~params ~last ~dout ~pre ~x ~din]: one sample's
    backward pass through a dense layer, [params] holding [n_out =
    Array.length dout] rows of [n = Array.length x] weights and a bias.
    Row [o]'s gradient [d] is [dout.(o)] where [last] (linear) or
    [pre.(o) > 0.] (ReLU), else [0.]; the sums gain [d *. x.(i)] per
    weight and [d] per bias, and [din.(i)] accumulates [w_i *. d].
    Raises [Invalid_argument], changing nothing, when [params] is not
    the state's size or [n_out] rows of [n + 1], [pre] is not [n_out]
    long, or [din] is shorter than [x]. *)
val accumulate : t -> params:Ft_linalg.Linalg.vec -> last:bool -> dout:float array ->
  pre:float array -> x:float array -> din:float array -> unit

(** [step t ~params ~debt ~count]: one AdaDelta step on the sums
    divided by [count], which it then zeroes.  A row whose sums are all
    zero would only decay finite state, and defers that: [debt.(o)]
    counts the decays row [o] owes ([-1] while its state is not
    finite), paid in order before its next other step.  A fresh state's
    debt is all zeros; always step a state with the same [debt].
    Raises [Invalid_argument], changing nothing, when [params] is not
    the state's size or [Array.length debt] equal rows, or [count] is
    below 1. *)
val step : t -> params:Ft_linalg.Linalg.vec -> debt:int array -> count:int -> unit
