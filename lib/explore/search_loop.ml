(* The scaffolding every search method shares, extracted from what used
   to be duplicated verbatim across the Q-, P-, random and AutoTVM
   searches: RNG and evaluator creation, H seeding (with warm-start
   transfer points appended last), the measurement-budget gate, the
   traced trial loop, and result assembly via [Driver.finish].

   A search method is a [POLICY]: it decides the initial H and what one
   trial does (propose candidates, observe the committed values through
   [Driver.state]); the loop owns everything else.  The extraction is
   draw-for-draw faithful: for a given policy the RNG consumption, the
   evaluation order, the clock charges and the emitted trace records
   are exactly those of the pre-extraction hand-written loops. *)

type params = {
  seed : int;
  n_trials : int;  (* trial budget; policies may consume several per call *)
  n_starts : int;  (* SA starting points per trial (§5.1) *)
  steps : int;  (* moves per starting point (Q-method walks) *)
  gamma : float;  (* annealing selectivity *)
  explore_prob : float;  (* per-trial uniform-sample probability *)
  epsilon : float;  (* Q-agent exploration rate *)
  max_evals : int option;  (* hard measurement budget *)
  heuristic_seeds : bool;  (* include the per-hardware seed points in H *)
  transfer_seeds : Ft_schedule.Config.t list;  (* warm-start points, appended last *)
  flops_scale : float option;
  mode : Evaluator.mode option;
  n_parallel : int option;  (* simulated measurement devices (clock model) *)
  pool : Ft_par.Pool.t option;  (* domain pool for batched evaluation *)
  dispatch : Evaluator.dispatch option;
      (* external evaluation backend (the benchmark's timed cost
         model); None = the in-process pool.  Never changes results,
         only where the pure cost model runs. *)
  faults : Ft_fault.Plan.t;  (* injected failures (Plan.zero = none) *)
  checkpoint_path : string option;  (* crash-safe resume trail (JSONL) *)
  checkpoint_every : int;  (* trials between checkpoint appends *)
  resume : bool;  (* continue from the newest matching checkpoint *)
}

let default_params =
  {
    seed = 2020;
    n_trials = 60;
    n_starts = 4;
    steps = 5;
    gamma = 2.0;
    explore_prob = 0.15;
    epsilon = 0.3;
    max_evals = None;
    heuristic_seeds = true;
    transfer_seeds = [];
    flops_scale = None;
    mode = None;
    n_parallel = None;
    pool = None;
    dispatch = None;
    faults = Ft_fault.Plan.zero;
    checkpoint_path = None;
    checkpoint_every = 5;
    resume = false;
  }

type ctx = {
  params : params;
  rng : Ft_util.Rng.t;
  space : Ft_schedule.Space.t;
  evaluator : Evaluator.t;
  state : Driver.state;
  out_of_budget : unit -> bool;
}

module type POLICY = sig
  type t

  (* Stable [Driver.result] method name; persisted in tuning logs, so
     it must never be renamed (DESIGN.md §10). *)
  val method_name : string

  (* Initial H, drawn before [Driver.init]; most policies use
     {!default_seeds}. *)
  val seeds :
    params -> Ft_util.Rng.t -> Ft_schedule.Space.t -> Ft_schedule.Config.t list

  (* Policy state, built after H is seeded (so RNG draws here follow
     the seeding draws, as the hand-written loops had it). *)
  val create : ctx -> t

  (* One traced trial at 1-based [index]; returns how many trial
     indices it consumed (>= 1; chunked policies consume several). *)
  val trial : t -> ctx -> index:int -> int
end

(* Default H: the naive point, the generic per-hardware heuristic
   points, four random points, then the warm-start transfer points —
   appended last so the RNG stream does not depend on them. *)
let default_seeds (p : params) rng space =
  Driver.seed_points ~heuristics:p.heuristic_seeds ~extra:p.transfer_seeds rng
    space 4

(* The per-trial telemetry span every method emits; [n] is for chunked
   policies that cover several trial indices per span. *)
let trial_span ~key ~index ?n f =
  Ft_obs.Trace.with_span "trial"
    ~fields:
      (("method", Ft_obs.Trace.Str key)
      :: ("index", Ft_obs.Trace.Int index)
      :: (match n with None -> [] | Some n -> [ ("n", Ft_obs.Trace.Int n) ]))
    f

(* Identifies one (space, method, seed) run in a checkpoint trail;
   checkpoints from other operators, targets, methods, or seeds in the
   same file never match. *)
let run_id ~method_name params space =
  let key = Ft_store.Record.key_of_space space in
  Printf.sprintf "%s|%s|%s|%s|seed=%d" key.Ft_store.Record.graph
    key.Ft_store.Record.op key.Ft_store.Record.target method_name params.seed

let run (module P : POLICY) params space =
  let rng = Ft_util.Rng.create params.seed in
  let evaluator =
    Evaluator.create ?flops_scale:params.flops_scale ?mode:params.mode
      ?n_parallel:params.n_parallel ?pool:params.pool ?dispatch:params.dispatch
      ~faults:params.faults space
  in
  let rid = run_id ~method_name:P.method_name params space in
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
  let state = Driver.init evaluator (P.seeds params rng space) in
  (match resumed_from with
  | None -> ()
  | Some ck ->
      (* The checkpointed incumbent re-enters H as an externally
         measured point at its recorded value — so the resumed run's
         best can never fall below the checkpoint even if re-measuring
         that config would now fault — and the RNG continues the
         crashed run's stream from the save point. *)
      (match Ft_schedule.Config_io.of_string_for space ck.config with
      | Ok cfg -> ignore (Driver.absorb state cfg ck.best_value)
      | Error _ -> ());
      Ft_util.Rng.set_state rng ck.rng_state;
      Ft_obs.Trace.incr "checkpoint.resume";
      if Ft_obs.Trace.active () then
        Ft_obs.Trace.event "checkpoint.resume"
          [ ("trial", Int ck.trial); ("best", Float ck.best_value) ]);
  let out_of_budget () =
    match params.max_evals with
    | Some cap -> Evaluator.n_evals evaluator >= cap
    | None -> false
  in
  let ctx = { params; rng; space; evaluator; state; out_of_budget } in
  let policy = P.create ctx in
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
            n_evals = Evaluator.n_evals evaluator;
            clock_s = Evaluator.clock evaluator;
            best_value;
            config = Ft_schedule.Config_io.to_string best_config;
            rng_state = Ft_util.Rng.state rng;
          };
        last_checkpoint := !trial;
        Ft_obs.Trace.incr "checkpoint.write"
    | Some _ | None -> ()
  in
  while !trial < params.n_trials && not (out_of_budget ()) do
    let before = !trial in
    let consumed = P.trial policy ctx ~index:(!trial + 1) in
    trial := !trial + max 1 consumed;
    if
      params.checkpoint_path <> None
      && !trial - !last_checkpoint >= max 1 params.checkpoint_every
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
  Driver.finish ~method_name:P.method_name state
