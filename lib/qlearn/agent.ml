type transition = {
  state : float array;
  action : int;
  reward : float;
  next_state : float array;
  next_valid : int list;  (* actions available from the next state *)
}

(* The §5.1 hyperparameters, fixed as in the paper (DESIGN.md §3). *)
let alpha = 0.7  (* discount on the next state's best Q-value *)
let hidden = 64  (* width of each of the three hidden layers *)

(* Training runs every five recorded transitions, not every five
   search trials: a Q-method trial records one transition per walk
   step, ~19 per trial on the benchmark's [q_search] workload. *)
let train_every = 5
let batch_size = 16
let replay_cap = 512
let epsilon_start = 0.3
let epsilon_decay = 0.98
let epsilon_min = 0.05

(* One network: X of §5.1.  X moves only at the end of a training
   round, so during a round it is also §5.1's backup network Y — the
   copy of X taken at the end of the previous round. *)
type t = {
  online : Ft_nn.Network.t;
  feature_dim : int;
  n_actions : int;
  replay : transition array;
  mutable replay_len : int;
  mutable replay_pos : int;
  mutable recorded : int;
  mutable epsilon : float;
  rng : Ft_util.Rng.t;
}

let create rng ~feature_dim ~n_actions =
  if n_actions <= 0 then invalid_arg "Agent.create: need at least one action";
  (* Four fully connected layers with ReLU, as in the paper. *)
  let dims = [| feature_dim; hidden; hidden; hidden; n_actions |] in
  {
    online = Ft_nn.Network.mlp rng ~dims;
    feature_dim;
    n_actions;
    replay =
      Array.make replay_cap
        { state = [||]; action = 0; reward = 0.; next_state = [||]; next_valid = [] };
    replay_len = 0;
    replay_pos = 0;
    recorded = 0;
    epsilon = epsilon_start;
    rng;
  }

let q_values t state = Ft_nn.Network.forward t.online state
let q_values_batch t states = Ft_nn.Network.forward_rows t.online states

(* Epsilon-greedy over the *valid* directions only: one RNG float,
   plus one choose on the exploration branch; the Q row is computed
   only on the greedy branch. *)
let select t ~state ~valid =
  match valid with
  | [] -> None
  | first :: rest ->
      if Ft_util.Rng.float t.rng 1.0 < t.epsilon then Some (Ft_util.Rng.choose t.rng valid)
      else
        let q = q_values t state in
        Some (List.fold_left (fun best a -> if q.(a) > q.(best) then a else best) first rest)

(* One round on [min 16 replay_len] transitions drawn in order:
   target = alpha * max_a' Y(next)[a'] + reward (§5.1), with Y = X
   frozen for the round, so every target row comes from one block
   before the round's averaged AdaDelta step. *)
let train_batch t =
  let sampled =
    Array.init (min batch_size t.replay_len) (fun _ ->
        t.replay.(Ft_util.Rng.int t.rng t.replay_len))
  in
  let rows = q_values_batch t (Array.map (fun tr -> tr.next_state) sampled) in
  let batch =
    Array.mapi
      (fun j tr ->
        let maxq =
          match tr.next_valid with
          | [] -> 0.
          | valid -> Ft_util.Mathx.max_at rows.(j) valid
        in
        (tr.state, tr.action, (alpha *. maxq) +. tr.reward))
      sampled
  in
  let loss = Ft_nn.Network.train_round t.online batch in
  if Ft_obs.Trace.active () then
    Ft_obs.Trace.event "q.train"
      [ ("loss", Float loss); ("batch", Int (Array.length batch)); ("recorded", Int t.recorded) ];
  loss

(* Every check precedes the first mutation: a malformed transition in
   the replay buffer would fail every training round that samples it. *)
let record t transition =
  if transition.action < 0 || transition.action >= t.n_actions then
    invalid_arg "Agent.record: action index out of range";
  if List.exists (fun a -> a < 0 || a >= t.n_actions) transition.next_valid then
    invalid_arg "Agent.record: next_valid index out of range";
  let fits s = Array.length s = t.feature_dim in
  if not (fits transition.state && fits transition.next_state) then
    invalid_arg (Printf.sprintf "Agent.record: state and next_state need %d features" t.feature_dim);
  t.replay.(t.replay_pos) <- transition;
  t.replay_pos <- (t.replay_pos + 1) mod replay_cap;
  t.replay_len <- min (t.replay_len + 1) replay_cap;
  t.recorded <- t.recorded + 1;
  t.epsilon <- Float.max epsilon_min (t.epsilon *. epsilon_decay);
  if Ft_obs.Trace.active () then Ft_obs.Trace.gauge "q.epsilon" t.epsilon;
  if t.recorded mod train_every = 0 then Some (train_batch t) else None

let epsilon t = t.epsilon
