(** The exploration scaffolding shared by every search method: RNG and
    evaluator creation, H seeding (warm-start transfer points appended
    last), the measurement-budget gate, the traced trial loop, and
    result assembly.  A method supplies only a {!POLICY}; {!run} owns
    the rest, and is draw-for-draw faithful to the hand-written loops
    it replaced — results are bit-for-bit identical. *)

(** The parameter surface shared by all search methods.  Fields a
    method does not use are ignored (e.g. [steps] outside the
    Q-method, [heuristic_seeds] for template-seeded baselines). *)
type params = {
  seed : int;
  n_trials : int;  (** trial budget; policies may consume several per call *)
  n_starts : int;  (** SA starting points per trial (§5.1) *)
  steps : int;  (** moves per starting point (Q-method walks) *)
  gamma : float;  (** annealing selectivity *)
  explore_prob : float;  (** per-trial uniform-sample probability *)
  epsilon : float;  (** Q-agent exploration rate *)
  max_evals : int option;  (** hard measurement budget *)
  heuristic_seeds : bool;  (** include the per-hardware seed points in H *)
  transfer_seeds : Ft_schedule.Config.t list;
      (** warm-start points, appended after all RNG-drawn seeds so the
          draw sequence does not depend on them *)
  flops_scale : float option;
  mode : Evaluator.mode option;
  n_parallel : int option;  (** simulated measurement devices (clock model) *)
  pool : Ft_par.Pool.t option;  (** domain pool for batched evaluation *)
  dispatch : Evaluator.dispatch option;
      (** external evaluation backend ({!Evaluator.dispatch}; the
          benchmark's timed cost model); [None] = the in-process
          pool.  Never changes results, only where the pure cost
          model runs *)
  faults : Ft_fault.Plan.t;
      (** injected measurement failures ({!Ft_fault.Plan.zero} = none;
          a zero plan leaves the run bit-for-bit unchanged) *)
  checkpoint_path : string option;
      (** append crash-safe checkpoints to this JSONL file
          ({!Ft_store.Checkpoint}); [None] = no checkpointing *)
  checkpoint_every : int;  (** trials between checkpoint appends (default 5) *)
  resume : bool;
      (** continue from the newest checkpoint matching this
          (space, method, seed) run: the checkpointed incumbent is
          absorbed at its recorded value (the resumed best can never
          fall below it) and the RNG continues the crashed run's
          stream; the resumed leg reports its own fresh accounting *)
}

(** Paper defaults: seed 2020, 60 trials, 4 starts, 5 steps, gamma 2.0,
    explore 0.15, epsilon 0.3, no eval cap, heuristic seeding on; no
    faults, no checkpointing. *)
val default_params : params

(** Everything a policy may consult during a search. *)
type ctx = {
  params : params;
  rng : Ft_util.Rng.t;
  space : Ft_schedule.Space.t;
  evaluator : Evaluator.t;
  state : Driver.state;
  out_of_budget : unit -> bool;
}

(** A search method: how to seed H and what one trial does.  Proposals
    are evaluated and observed through {!Driver.state} ([evaluate],
    [evaluate_batch], [state.best], [state.evaluated]). *)
module type POLICY = sig
  type t

  (** Stable [Driver.result] method name; persisted in tuning logs —
      never rename (DESIGN.md §10). *)
  val method_name : string

  val seeds :
    params -> Ft_util.Rng.t -> Ft_schedule.Space.t -> Ft_schedule.Config.t list

  (** Policy state, built after H is seeded (RNG draws here follow the
      seeding draws). *)
  val create : ctx -> t

  (** One traced trial at 1-based [index]; returns the number of trial
      indices consumed (>= 1). *)
  val trial : t -> ctx -> index:int -> int
end

(** The default H seeding ({!Driver.seed_points} with 4 random points,
    honouring [heuristic_seeds] and [transfer_seeds]). *)
val default_seeds :
  params -> Ft_util.Rng.t -> Ft_schedule.Space.t -> Ft_schedule.Config.t list

(** The per-trial telemetry span ([trial], with [method]/[index] and
    optionally [n] fields). *)
val trial_span : key:string -> index:int -> ?n:int -> (unit -> 'a) -> 'a

(** The checkpoint-trail identity of one (space, method, seed) run —
    what [--resume] matches checkpoints against. *)
val run_id :
  method_name:string -> params -> Ft_schedule.Space.t -> string

(** Run a policy to completion: seed H, loop trials under the budget,
    finish.  The result's [method_name] is the policy's.  With
    [checkpoint_path] set, resumable state is appended every
    [checkpoint_every] trials; with [faults.crash_at_trial] set, the
    loop checkpoints and raises {!Ft_fault.Plan.Injected_crash} when
    the trial counter first crosses N. *)
val run : (module POLICY) -> params -> Ft_schedule.Space.t -> Driver.result
