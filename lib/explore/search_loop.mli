(** The exploration scaffolding shared by every search method: RNG and
    evaluator creation, H seeding (warm-start transfer points appended
    last), the space's directions, the measurement-budget gate, the
    traced trial loop, and result assembly.  A method supplies only a
    {!policy} — its seeds and its trial step — and {!Method} runs it
    under its stable name; {!run} owns the rest, and is draw-for-draw
    faithful to the hand-written loops it replaced — results are
    bit-for-bit identical. *)

(** The parameter surface shared by all search methods.  Fields a
    method does not use are ignored (e.g. [steps] outside the
    Q-method, [heuristic_seeds] for template-seeded baselines). *)
type params = {
  seed : int;
  n_trials : int;  (** trial budget; policies may consume several per call *)
  steps : int;  (** moves per starting point (Q-method walks) *)
  max_evals : int option;  (** hard measurement budget *)
  heuristic_seeds : bool;  (** include the per-hardware seed points in H *)
  transfer_seeds : Ft_schedule.Config.t list;
      (** warm-start points, appended after all RNG-drawn seeds so the
          draw sequence does not depend on them *)
  n_parallel : int;  (** simulated measurement devices (clock model) *)
  dispatch : Evaluator.dispatch option;
      (** external evaluation backend ({!Evaluator.dispatch}; the
          benchmark's timed cost model); [None] = the local cost
          model.  Never changes results, only where the pure cost
          model runs *)
  faults : Ft_fault.Plan.t;
      (** injected measurement failures ({!Ft_fault.Plan.zero} = none;
          a zero plan leaves the run bit-for-bit unchanged) *)
  checkpoint_path : string option;
      (** append crash-safe checkpoints to this JSONL file
          ({!Ft_store.Checkpoint}); [None] = no checkpointing *)
  resume : bool;
      (** continue from the newest checkpoint matching this
          (space, method, seed) run: the checkpointed incumbent is
          absorbed at its recorded value (the resumed best can never
          fall below it) and the RNG continues the crashed run's
          stream; the resumed leg reports its own fresh accounting *)
}

(** Paper defaults: seed 2020, 60 trials, 5 steps, no eval cap,
    heuristic seeding on, one simulated device; no faults, no
    checkpointing. *)
val default_params : params

(** Annealing starting points per Q- or P-method trial (§5.1): 4. *)
val n_starts : int

(** Everything a policy may consult during a search.  Proposals are
    evaluated and observed through [state] ({!Driver.evaluate_batch},
    {!Driver.value}, {!Driver.charge}, [state.best], [state.pool]). *)
type ctx = {
  params : params;
  rng : Ft_util.Rng.t;
  space : Ft_schedule.Space.t;
  directions : Ft_schedule.Neighborhood.move array;
      (** [space]'s {!Ft_schedule.Neighborhood.directions}, built once
          per search (the Q-network's action indexing) *)
  state : Driver.state;
  method_name : string;  (** the name {!run} was given *)
}

(** A search method: how to seed H and what one trial does.  [start]
    is called once, after H is seeded (its RNG draws follow the
    seeding draws); it builds whatever the method keeps across trials
    and returns the trial step, which runs one traced trial at 1-based
    [index] and returns the number of trial indices consumed (>= 1). *)
type policy = {
  seeds :
    params -> Ft_util.Rng.t -> Ft_schedule.Space.t -> Ft_schedule.Config.t list;
  start : ctx -> index:int -> int;
}

(** The default H seeding: the naive config, the generic per-hardware
    heuristic points (if [heuristic_seeds]), 4 random points, then the
    [transfer_seeds] — appended last so the RNG stream does not depend
    on them. *)
val default_seeds :
  params -> Ft_util.Rng.t -> Ft_schedule.Space.t -> Ft_schedule.Config.t list

(** The annealing start of a Q- or P-method trial, with the paper's
    fixed §5.1 constants: with probability 0.15, evaluate one unseen
    uniform sample; then draw {!n_starts} starting points from H
    ({!Ft_anneal.Sa.select} with gamma = 2.0) and emit them as an
    [sa.starts] trace event. *)
val sa_starts : ctx -> (Ft_schedule.Config.t * float) list

(** [expand ctx cfg acc]: the valid neighbours of [cfg] along
    [ctx.directions], in direction order, in front of [acc] — the
    points of {!Ft_schedule.Neighborhood.neighbors}. *)
val expand :
  ctx -> Ft_schedule.Config.t -> Ft_schedule.Config.t list -> Ft_schedule.Config.t list

(** The per-trial telemetry span ([trial], with [method]/[index] and
    optionally [n] fields). *)
val trial_span : key:string -> index:int -> ?n:int -> (unit -> 'a) -> 'a

(** The checkpoint-trail identity of one (space, method, seed) run —
    what [--resume] matches checkpoints against. *)
val run_id :
  method_name:string -> params -> Ft_schedule.Space.t -> string

(** [run ~method_name policy params space] runs [policy] to
    completion: seed H with the policy's seeds that are [Space.valid]
    in [space], loop trials under the budget, finish.
    [method_name] identifies the run's checkpoint trail ({!run_id}).
    With [checkpoint_path] set, resumable state is appended every 5
    trials; with [faults.crash_at_trial] set, the loop checkpoints and
    raises {!Ft_fault.Plan.Injected_crash} when the trial counter first
    crosses N. *)
val run :
  method_name:string -> policy -> params -> Ft_schedule.Space.t -> Driver.result
