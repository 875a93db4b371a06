type transition = {
  state : float array;
  action : int;
  reward : float;
  next_state : float array;
  next_valid : int list;  (* actions available from the next state *)
}

(* The §5.1 hyperparameters, fixed as in the paper (DESIGN.md §3). *)
let alpha = 0.7  (* discount on the target network's best Q-value *)
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

type t = {
  online : Ft_nn.Network.t;  (* network X of §5.1 *)
  target : Ft_nn.Network.t;  (* network Y, kept as a stable backup *)
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
  let online = Ft_nn.Network.mlp rng ~dims in
  let target = Ft_nn.Network.mlp rng ~dims in
  Ft_nn.Network.copy_params ~src:online ~dst:target;
  {
    online;
    target;
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

(* One batched online-network forward — row [i] is bit-for-bit
   [q_values t states.(i)], and no RNG is consumed, so callers may
   precompute rows for a whole frontier without perturbing the
   epsilon-greedy draw sequence. *)
let q_values_batch t states = Ft_nn.Network.forward_batch t.online states

let best_valid values valid =
  match valid with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun best action -> if values.(action) > values.(best) then action else best)
           first rest)

(* Epsilon-greedy over the *valid* directions only, with the Q row
   supplied by the caller (precomputed, usually by a batched forward).
   The RNG draws are exactly those of the lazy scalar path: one float,
   plus one choose on the exploration branch. *)
let select_scored t ~q ~valid =
  match valid with
  | [] -> None
  | _ ->
      if Ft_util.Rng.float t.rng 1.0 < t.epsilon then
        Some (Ft_util.Rng.choose t.rng valid)
      else best_valid (Lazy.force q) valid

let select t ~state ~valid =
  select_scored t ~q:(lazy (q_values t state)) ~valid

let train_batch t =
  let n = min batch_size t.replay_len in
  (* Sample the replay indices first, in the same ascending order the
     sequential loop drew them, then compute every target-network
     forward in one batch: Y is frozen until the copy below, so the
     batched rows are bit-for-bit what the interleaved scalar
     forwards produced. *)
  let sampled = Array.make (max n 1) t.replay.(0) in
  for i = 0 to n - 1 do
    sampled.(i) <- t.replay.(Ft_util.Rng.int t.rng t.replay_len)
  done;
  let need =
    List.filteri (fun i _ -> (sampled.(i)).next_valid <> [])
      (Array.to_list (Array.sub sampled 0 n))
  in
  let rows =
    Ft_nn.Network.forward_batch t.target
      (Array.of_list (List.map (fun tr -> tr.next_state) need))
  in
  let maxq = Array.make (max n 1) 0. in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if sampled.(i).next_valid <> [] then begin
      maxq.(i) <-
        List.fold_left
          (fun acc action -> Float.max acc rows.(!j).(action))
          neg_infinity sampled.(i).next_valid;
      incr j
    end
  done;
  let total = ref 0. in
  for i = 0 to n - 1 do
    let transition = sampled.(i) in
    (* target = alpha * max_a' Y(next)[a'] + reward — §5.1. *)
    let target = (alpha *. maxq.(i)) +. transition.reward in
    total :=
      !total
      +. Ft_nn.Network.train_mse_component t.online ~input:transition.state
           ~index:transition.action ~target
  done;
  (* The updated parameters become the new backup network Y. *)
  Ft_nn.Network.copy_params ~src:t.online ~dst:t.target;
  let loss = if n > 0 then !total /. float_of_int n else 0. in
  if Ft_obs.Trace.active () then
    Ft_obs.Trace.event "q.train"
      [ ("loss", Float loss); ("batch", Int n); ("recorded", Int t.recorded) ];
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
let recorded t = t.recorded
