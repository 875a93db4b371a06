(** Minimal dense neural network: fully connected layers with ReLU
    activations (linear last layer), trained with AdaDelta on MSE —
    exactly the Q-value predictor architecture of §5.1.

    Rows run through each layer as one block, in scratch buffers that
    every network of a domain shares: two systhreads of one domain must
    not run network calls at the same time. *)

type t

(** [mlp rng ~dims] builds a fully connected net with layer sizes
    [dims] (He-initialized); [dims = [|in; h; h; h; out|]] is the
    paper's four-layer network. *)
val mlp : Ft_util.Rng.t -> dims:int array -> t

(** Inference: the output row for one input, a block of one through
    {!forward_rows}. *)
val forward : t -> float array -> float array

(** The output rows of a block of inputs, per row the same bits as
    {!forward}.  When tracing, its time accumulates into the
    [nn.forward_ns] counter.  Raises [Invalid_argument] when an input
    is not the first layer's width. *)
val forward_rows : t -> float array array -> float array array

(** [train_round t batch]: one minibatch round; each [(input, index,
    target)] trains output [index] towards [target] (half squared
    error).  The batch goes forward and back as one block, gradients
    summed in order against the same weights; then each layer takes one
    AdaDelta step on their mean ({!Adadelta.step}).  Returns the mean
    pre-update loss ([0.] for an empty batch).  Raises
    [Invalid_argument], changing nothing, when an input has the wrong
    width or an index is out of range. *)
val train_round : t -> (float array * int * float) array -> float

(** Parameter and layer counts.  Only [test_nn] reads them: the layer
    array is abstract, so no caller can count it any other way. *)
val param_count : t -> int

val num_layers : t -> int
