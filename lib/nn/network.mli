(** Minimal dense neural network: fully connected layers with ReLU
    activations (linear last layer), trained with AdaDelta on MSE —
    exactly the Q-value predictor architecture of §5.1. *)

type t

(** [mlp rng ~dims] builds a fully connected net with layer sizes
    [dims] (He-initialized); [dims = [|in; h; h; h; out|]] is the
    paper's four-layer network. *)
val mlp : Ft_util.Rng.t -> dims:int array -> t

(** Inference: the output row for one input, leaving the training
    step's caches alone.  When tracing, its time accumulates into the
    [nn.forward_ns] counter.  Raises [Invalid_argument] when the input
    is not the first layer's width. *)
val forward : t -> float array -> float array

(** [train_round t batch]: one minibatch round; each [(input, index,
    target)] trains output [index] towards [target] (half squared
    error).  Gradients are summed in order against the same weights,
    then each layer takes one AdaDelta step on their mean
    ({!Adadelta.step}).  Returns the mean pre-update loss ([0.] for an
    empty batch).  Raises [Invalid_argument], changing nothing, when an
    input has the wrong width or an index is out of range. *)
val train_round : t -> (float array * int * float) array -> float

val param_count : t -> int
val num_layers : t -> int
