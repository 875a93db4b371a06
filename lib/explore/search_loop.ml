(* The scaffolding every search method shares: RNG and evaluator
   creation, H seeding (warm-start transfer points appended last), the
   measurement-budget gate, the traced trial loop, and result assembly
   via [Driver.finish].  A search method is a [policy] value: its
   initial H and a function that, given the search context, returns
   what one trial does; the loop owns everything else, draw for draw
   as the hand-written loops it replaced. *)

type params = {
  seed : int;
  n_trials : int;  (* trial budget; policies may consume several per call *)
  steps : int;  (* moves per starting point (Q-method walks) *)
  max_evals : int option;  (* hard measurement budget *)
  heuristic_seeds : bool;  (* include the per-hardware seed points in H *)
  transfer_seeds : Ft_schedule.Config.t list;  (* warm-start points, appended last *)
  n_parallel : int;  (* simulated measurement devices (clock model) *)
  dispatch : Evaluator.dispatch option;
      (* external evaluation backend (the benchmark's timed cost
         model); None = the local cost model.  Never changes
         results, only where the pure cost model runs. *)
  faults : Ft_fault.Plan.t;  (* injected failures (Plan.zero = none) *)
  checkpoint_path : string option;  (* crash-safe resume trail (JSONL) *)
  resume : bool;  (* continue from the newest matching checkpoint *)
}

let default_params =
  {
    seed = 2020;
    n_trials = 60;
    steps = 5;
    max_evals = None;
    heuristic_seeds = true;
    transfer_seeds = [];
    n_parallel = 1;
    dispatch = None;
    faults = Ft_fault.Plan.zero;
    checkpoint_path = None;
    resume = false;
  }

(* The paper's fixed annealing hyperparameters (§5.1): each Q- or
   P-method trial draws one uniform sample with probability
   [explore_prob], then [n_starts] starting points from H with
   selectivity [gamma]. *)
let n_starts = 4
let gamma = 2.0
let explore_prob = 0.15

(* Trials between checkpoint appends. *)
let checkpoint_every = 5

type ctx = {
  params : params;
  rng : Ft_util.Rng.t;
  space : Ft_schedule.Space.t;
  directions : Ft_schedule.Neighborhood.move array;  (* built once per search *)
  state : Driver.state;
  method_name : string;  (* the run's stable name *)
}

type policy = {
  seeds :
    params -> Ft_util.Rng.t -> Ft_schedule.Space.t -> Ft_schedule.Config.t list;
  start : ctx -> index:int -> int;
}

(* Default H: the naive point, the generic per-hardware heuristic
   points, four random points, then the warm-start transfer points —
   appended last so the RNG stream does not depend on them. *)
let default_seeds (p : params) rng space =
  (Ft_schedule.Space.default_config space
  :: (if p.heuristic_seeds then Ft_schedule.Heuristics.seed_configs space else []))
  @ List.init 4 (fun _ -> Ft_schedule.Space.random_config rng space)
  @ p.transfer_seeds

(* The per-trial telemetry span every method emits; [n] is for chunked
   policies that cover several trial indices per span. *)
let trial_span ~key ~index ?n f =
  Ft_obs.Trace.with_span "trial"
    ~fields:
      (("method", Ft_obs.Trace.Str key)
      :: ("index", Ft_obs.Trace.Int index)
      :: (match n with None -> [] | Some n -> [ ("n", Ft_obs.Trace.Int n) ]))
    f

(* The start of every Q- and P-method trial.  An occasional uniform
   sample keeps the annealing pool from collapsing into one basin of
   the rugged landscape; the chosen starting points are traced (no RNG
   use, no effect on evaluation order). *)
let sa_starts ctx =
  let { rng; space; state; _ } = ctx in
  if Ft_util.Rng.float rng 1.0 < explore_prob then
    ignore (Driver.evaluate_batch state [ Ft_schedule.Space.random_config rng space ]);
  let starts = Ft_anneal.Sa.select rng ~gamma ~count:n_starts state.pool in
  if Ft_obs.Trace.active () then
    Ft_obs.Trace.event "sa.starts"
      [
        ("n", Int (List.length starts));
        ( "values",
          Str
            (String.concat ","
               (List.map (fun (_, v) -> Printf.sprintf "%g" v) starts)) );
      ];
  starts

(* [Neighborhood.neighbors] without the moves, in front of [acc]:
   applied last to first, so the list reads in direction order. *)
let expand { space; directions; _ } cfg acc =
  let acc = ref acc in
  for d = Array.length directions - 1 downto 0 do
    match Ft_schedule.Neighborhood.apply space cfg directions.(d) with
    | Some next -> acc := next :: !acc
    | None -> ()
  done;
  !acc

(* Identifies one (space, method, seed) run in a checkpoint trail;
   checkpoints from other operators, targets, methods, or seeds in the
   same file never match. *)
let run_id ~method_name params space =
  let key = Ft_store.Record.key_of_space space in
  Printf.sprintf "%s|%s|%s|%s|seed=%d" key.Ft_store.Record.graph
    key.Ft_store.Record.op key.Ft_store.Record.target method_name params.seed

let run ~method_name policy params space =
  let rng = Ft_util.Rng.create params.seed in
  let rid = run_id ~method_name params space in
  (* Resume state is read before any RNG draw or measurement; a
     missing or foreign checkpoint file simply starts the run fresh
     (malformed lines are tolerated, a half-written line from the
     crash included). *)
  let resumed_from =
    if not params.resume then None
    else
      match params.checkpoint_path with
      | None -> None
      | Some path -> fst (Ft_store.Checkpoint.latest ~run_id:rid path)
  in
  (* A heuristic or refitted transfer seed can miss a template's
     domains: seeds outside the space are dropped. *)
  let state =
    Driver.init ~n_parallel:params.n_parallel ?dispatch:params.dispatch
      ?max_evals:params.max_evals
      (Evaluator.create ~faults:params.faults space)
      (List.filter (Ft_schedule.Space.valid space) (policy.seeds params rng space))
  in
  (match resumed_from with
  | None -> ()
  | Some ck ->
      (* The checkpointed incumbent re-enters H as an externally
         measured point at its recorded value — so the resumed run's
         best can never fall below the checkpoint even if re-measuring
         that config would now fault — and the RNG continues the
         crashed run's stream from the save point. *)
      (match Ft_schedule.Config_io.of_string_for space ck.config with
      | Ok cfg -> Driver.absorb state cfg ck.best_value
      | Error _ -> ());
      Ft_util.Rng.set_state rng ck.rng_state;
      Ft_obs.Trace.incr "checkpoint.resume";
      if Ft_obs.Trace.active () then
        Ft_obs.Trace.event "checkpoint.resume"
          [ ("trial", Int ck.trial); ("best", Float ck.best_value) ]);
  let directions = Array.of_list (Ft_schedule.Neighborhood.directions space) in
  (* RNG draws in [start] follow the seeding draws. *)
  let step = policy.start { params; rng; space; directions; state; method_name } in
  let trial =
    ref (match resumed_from with Some ck -> ck.trial | None -> 0)
  in
  let last_checkpoint = ref !trial in
  let write_checkpoint () =
    match params.checkpoint_path with
    | Some path when !last_checkpoint <> !trial ->
        let best_config, best_value = state.Driver.best in
        Ft_store.Checkpoint.append path
          {
            Ft_store.Checkpoint.run_id = rid;
            trial = !trial;
            n_evals = Driver.n_evals state;
            clock_s = Driver.clock state;
            best_value;
            config = Ft_schedule.Config_io.to_string best_config;
            rng_state = Ft_util.Rng.state rng;
          };
        last_checkpoint := !trial;
        Ft_obs.Trace.incr "checkpoint.write"
    | Some _ | None -> ()
  in
  while !trial < params.n_trials && not (Driver.out_of_budget state) do
    let before = !trial in
    let consumed = step ~index:(!trial + 1) in
    trial := !trial + max 1 consumed;
    if
      params.checkpoint_path <> None
      && !trial - !last_checkpoint >= checkpoint_every
    then write_checkpoint ();
    (* The injected process crash fires once, when the trial counter
       first crosses N — a resumed run restarts at a trial >= N and
       never re-crashes.  The state is checkpointed first, so the
       crash is recoverable by construction. *)
    match params.faults.Ft_fault.Plan.crash_at_trial with
    | Some n when before < n && n <= !trial ->
        write_checkpoint ();
        raise (Ft_fault.Plan.Injected_crash !trial)
    | Some _ | None -> ()
  done;
  Driver.finish state
