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

(** One training step on half squared error of a full output vector;
    returns the pre-update loss.  One fused backward + AdaDelta pass
    per layer; rows with a zero gradient only decay the optimizer
    state, deferred until they next learn (bit-for-bit the full
    update, see {!Adadelta.update_layer}). *)
val train_mse : t -> input:float array -> target:float array -> float

(** One training step on a single output component (the Q-value of the
    action taken); other outputs receive no gradient. *)
val train_mse_component : t -> input:float array -> index:int -> target:float -> float

(** Copy weights into a structurally identical network (the target
    network of DQN-style training). *)
val copy_params : src:t -> dst:t -> unit

val param_count : t -> int
val num_layers : t -> int
