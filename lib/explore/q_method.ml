(* The paper's full back-end (§5.1): simulated annealing chooses which
   evaluated points to expand, and the Q-network chooses the single
   direction to move from each — one measurement per starting point per
   trial.

   The [Search_loop.n_starts] walks of a trial advance in lockstep so
   that each step's proposals form a batch (the paper measures
   candidate schedules concurrently across devices): every live walk
   picks a direction in walk order, the proposed points are
   batch-evaluated, then the agent records every transition, again in
   walk order.  All stochastic choices happen in that fixed order. *)

let agent_query_cost = 0.001
let training_round_cost = 0.05

(* The directions whose move stays in the space and leaves H, in
   ascending order. *)
let valid_actions { Search_loop.space; directions; state; _ } cfg =
  let acc = ref [] in
  for i = Array.length directions - 1 downto 0 do
    match Ft_schedule.Neighborhood.apply space cfg directions.(i) with
    | Some next when not (Driver.seen state next) -> acc := i :: !acc
    | Some _ | None -> ()
  done;
  !acc

(* [features] and [valid] (directions, [None] until known) describe
   [cfg].  Recording a transition computes both for the point moved
   to, after the batch is committed; nothing is visited between that
   and the next step's selection, so the next step reuses them. *)
type walk = {
  mutable cfg : Ft_schedule.Config.t;
  mutable value : float;
  mutable alive : bool;
  mutable features : float array;
  mutable valid : int list option;
}

(* A walk ends when the agent has no valid direction, its move leaves
   the space, or the eval budget cuts its proposal from the batch. *)
let kill walk reason =
  walk.alive <- false;
  Ft_obs.Trace.incr "q.walk_death";
  if Ft_obs.Trace.active () then
    Ft_obs.Trace.event "q.walk_death" [ ("reason", Str reason) ]

(* One lockstep step of all live walks: select, batch-measure,
   learn. *)
let step_walks agent (ctx : Search_loop.ctx) walks =
  let { Search_loop.space; directions; state; _ } = ctx in
  let proposals =
    List.filter_map
      (fun w ->
        if not w.alive then None
        else begin
          let valid = match w.valid with Some v -> v | None -> valid_actions ctx w.cfg in
          Driver.charge state agent_query_cost;
          match Ft_qlearn.Agent.select agent ~state:w.features ~valid with
          | None ->
              kill w "no_valid_action";
              None
          | Some action -> (
              if Ft_obs.Trace.active () then
                Ft_obs.Trace.event "q.action"
                  [
                    ("action", Int action);
                    ("epsilon", Float (Ft_qlearn.Agent.epsilon agent));
                  ];
              match Ft_schedule.Neighborhood.apply space w.cfg directions.(action) with
              | None ->
                  kill w "move_left_space";
                  None
              | Some next -> Some (w, action, next))
        end)
      walks
  in
  ignore (Driver.evaluate_batch state (List.map (fun (_, _, next) -> next) proposals));
  (* Every proposal was outside H when selected, so one in H now was
     committed by this batch. *)
  List.iter
    (fun (w, action, next) ->
      match Driver.value state next with
      | None ->
          (* The budget cut the batch short of this proposal. *)
          kill w "budget_cut"
      | Some next_value ->
          (* Normalized reward (Ee - Ep) / Ep; a zero-performance
             start rewards any valid improvement. *)
          let reward =
            if w.value > 0. then (next_value -. w.value) /. w.value
            else if next_value > 0. then 1.
            else 0.
          in
          let next_valid = valid_actions ctx next in
          let next_features = Ft_schedule.Space.features space next in
          (match
             Ft_qlearn.Agent.record agent
               { state = w.features; action; reward; next_state = next_features; next_valid }
           with
          | Some _loss -> Driver.charge state training_round_cost
          | None -> ());
          w.cfg <- next;
          w.value <- next_value;
          w.features <- next_features;
          w.valid <- Some next_valid)
    proposals

let trial agent (ctx : Search_loop.ctx) ~index =
  let { Search_loop.params; space; state; _ } = ctx in
  Search_loop.trial_span ~key:"q" ~index (fun () ->
      let walks =
        List.map
          (fun (cfg, value) ->
            let features = Ft_schedule.Space.features space cfg in
            { cfg; value; alive = true; features; valid = None })
          (Search_loop.sa_starts ctx)
      in
      let step = ref 0 in
      while
        !step < params.steps
        && (not (Driver.out_of_budget state))
        && List.exists (fun w -> w.alive) walks
      do
        incr step;
        step_walks agent ctx walks
      done);
  1

(* The agent is the only state kept across trials; its RNG is split
   off after H is seeded. *)
let start (ctx : Search_loop.ctx) =
  trial
    (Ft_qlearn.Agent.create (Ft_util.Rng.split ctx.rng)
       ~feature_dim:(Ft_schedule.Space.feature_dim ctx.space)
       ~n_actions:(Array.length ctx.directions))
    ctx

let policy = { Search_loop.seeds = Search_loop.default_seeds; start }
