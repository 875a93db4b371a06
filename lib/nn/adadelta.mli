(** AdaDelta optimizer (Zeiler 2012), as used to train the paper's
    Q-network (§5.1), one whole dense layer of flat [Bigarray] float64
    vectors at a time: {!accumulate} adds a block of samples' gradients
    into the state's sums, {!step} moves the parameters once by the mean. *)

type t

(** [create n] is zeroed state for [n] parameters; the decay rate is
    0.95 and the smoothing term 1e-6. *)
val create : int -> t

(** [accumulate t ~params ~n_in ~samples ~last ~dout ~pre ~x ~din]:
    backward passes of a block of [samples] through a dense layer of
    [n_out] rows of [n_in] weights and a bias, sample after sample.
    [pre] and [x] are the forward's blocks (entry [k] of sample [j] at
    [k * samples + j]); [dout] and [din] hold a row per sample.  Row
    [o]'s gradient [d] is its [dout] where [last] (linear) or [pre > 0.]
    (ReLU), else [0.]; the sums gain [d *. x] per weight and [d] per
    bias, and [din], unless empty, gets [sum_o w_oi *. d].  Raises
    [Invalid_argument], changing nothing, when [params] is not the
    state's size or rows of [n_in + 1], or an array but an empty [din]
    is shorter than its block. *)
val accumulate : t -> params:Ft_linalg.Linalg.vec -> n_in:int -> samples:int -> last:bool ->
  dout:float array -> pre:float array -> x:float array -> din:float array -> unit

(** [step t ~params ~count]: one AdaDelta step of every parameter on
    the sums divided by [count], which it then zeroes.  Raises
    [Invalid_argument], changing nothing, when [params] is not the
    state's size or [count] is below 1. *)
val step : t -> params:Ft_linalg.Linalg.vec -> count:int -> unit
