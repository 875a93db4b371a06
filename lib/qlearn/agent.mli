(** Q-learning direction predictor (§5.1).

    States are schedule-point feature vectors, actions are directions
    in the rearranged schedule space, rewards are normalized
    performance deltas [(Ee - Ep) / Ep].  A four-layer MLP (64-wide
    hidden layers) predicts Q-values; every five recorded transitions,
    a 16-transition sample of a 512-entry replay buffer trains it with
    one averaged AdaDelta step.  Frozen for the round, it is its own
    target network (the DQN-style stabilization the paper cites).  The
    discount is 0.7; epsilon starts at 0.3 and decays by 0.98 per
    record down to 0.05 (DESIGN.md §3). *)

type transition = {
  state : float array;
  action : int;
  reward : float;
  next_state : float array;
  next_valid : int list;
}

type t

(** Raises [Invalid_argument] when [n_actions] is below 1. *)
val create : Ft_util.Rng.t -> feature_dim:int -> n_actions:int -> t

(** Online-network Q-values of every action at a state.  Only
    [test_qlearn] calls it today; the benchmark kit's Q-network timing
    is to call it in place of {!q_values_batch}. *)
val q_values : t -> float array -> float array

(** [Array.map (q_values t)]: kept only for the benchmark kit's
    Q-network timing, as [Flextensor.Pool] is for its child. *)
val q_values_batch : t -> float array array -> float array array

(** Epsilon-greedy choice among the valid action indices; [None] when
    no action is valid.  The Q row is computed only on the greedy
    branch. *)
val select : t -> state:float array -> valid:int list -> int option

(** Store a transition; every fifth call also runs a training round
    and returns its mean loss.  Raises [Invalid_argument] — before
    changing anything — when the action or an index in [next_valid] is
    out of range, or [state]/[next_state] is not [feature_dim] long. *)
val record : t -> transition -> float option

val epsilon : t -> float
