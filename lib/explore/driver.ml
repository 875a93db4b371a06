module Tbl = Ft_schedule.Config.Tbl

type sample = { at_s : float; n_evals : int; best_value : float }

type result = {
  method_name : string;
  best_config : Ft_schedule.Config.t;
  best_value : float;
  best_perf : Ft_hw.Perf.t;
  history : sample list;  (* best-so-far progression, chronological *)
  n_evals : int;
  sim_time_s : float;
}

type state = {
  evaluator : Evaluator.t;
  index : int Tbl.t;  (* config -> pool index of its first occurrence *)
  pool : Ft_schedule.Config.t Ft_anneal.Sa.pool;  (* the set H *)
  mutable best : Ft_schedule.Config.t * float;
  mutable best_perf : Ft_hw.Perf.t option;  (* None unless measured here *)
  mutable samples : sample list;  (* reverse chronological *)
}

let seen state cfg = Tbl.mem state.index cfg

(* Append an indexed point to H, update the incumbent; [perf] is the
   model result of a point measured here. *)
let push state cfg value perf =
  Ft_anneal.Sa.add state.pool cfg value;
  Ft_obs.Trace.incr "driver.commits";
  if value > snd state.best then begin
    state.best <- (cfg, value);
    state.best_perf <- perf;
    if Ft_obs.Trace.active () then
      Ft_obs.Trace.event "driver.incumbent"
        [
          ("value", Float value);
          ("clock_s", Float (Evaluator.clock state.evaluator));
          ("n_evals", Int (Evaluator.n_evals state.evaluator));
        ]
  end;
  state.samples <-
    {
      at_s = Evaluator.clock state.evaluator;
      n_evals = Evaluator.n_evals state.evaluator;
      best_value = snd state.best;
    }
    :: state.samples;
  value

let absorb state cfg value =
  if not (seen state cfg) then Tbl.add state.index cfg (Ft_anneal.Sa.size state.pool);
  push state cfg value None

(* Fold an evaluator commit into H: a fresh point is indexed at the
   slot it is about to take; a hit re-enters at its first value. *)
let commit state cfg = function
  | Some (value, perf) ->
      Tbl.add state.index cfg (Ft_anneal.Sa.size state.pool);
      push state cfg value (Some perf)
  | None -> push state cfg (Ft_anneal.Sa.value state.pool (Tbl.find state.index cfg)) None

let evaluate state cfg =
  commit state cfg (Evaluator.measure state.evaluator ~known:(seen state) cfg)

(* The points left after dropping those in H and in-batch duplicates
   are distinct and not in H, so none of them is [known] at its commit. *)
let evaluate_batch ?(should_stop = fun () -> false) state cfgs =
  let in_batch = Tbl.create 32 in
  let fresh =
    List.filter
      (fun cfg ->
        if seen state cfg || Tbl.mem in_batch cfg then false
        else begin
          Tbl.add in_batch cfg ();
          true
        end)
      cfgs
  in
  let committed = ref [] in
  Evaluator.commit_batch state.evaluator ~known:(fun _ -> false) ~should_stop fresh
    (fun cfg entry -> committed := (cfg, commit state cfg entry) :: !committed);
  List.rev !committed

let init evaluator initial =
  match initial with
  | [] -> invalid_arg "Driver.init: need at least one initial point"
  | first :: _ ->
      let state =
        {
          evaluator;
          index = Tbl.create 1024;
          pool = Ft_anneal.Sa.pool ();
          (* Seed the incumbent below every representable value so the
             first committed point is absorbed unconditionally: a 0.
             seed would survive any run whose measured values are all
             <= 0, and [finish] would then report best_value = 0. for
             a config never measured at that value. *)
          best = (first, neg_infinity);
          best_perf = None;
          samples = [];
        }
      in
      Ft_obs.Trace.with_span "driver.seed"
        ~fields:[ ("n", Int (List.length initial)) ]
        (fun () ->
          (* Unlike [evaluate_batch], seeding keeps duplicate inputs in H
             (as hits), matching the sequential per-point loop. *)
          Evaluator.commit_batch evaluator ~known:(seen state)
            ~should_stop:(fun () -> false) initial
            (fun cfg entry -> ignore (commit state cfg entry));
          state)

(* Default H seeding: the naive point, the two generic per-hardware
   heuristic points (the same knowledge the front-end's pruning bakes
   into the space), and a handful of random ones.  [extra] carries
   externally supplied warm-start points (e.g. schedules transferred
   from a tuning log); they are appended last so the RNG draws — and
   therefore every downstream stochastic choice — are identical
   whether or not extras are present. *)
let seed_points ?(heuristics = true) ?(extra = []) rng space n_random =
  (Ft_schedule.Space.default_config space
  :: (if heuristics then Ft_schedule.Heuristics.seed_configs space else []))
  @ List.init n_random (fun _ -> Ft_schedule.Space.random_config rng space)
  @ extra

(* Reporting charges and counts nothing, so the clock and counters
   describe the search alone. *)
let finish ~method_name state =
  let best_config, best_value = state.best in
  let best_perf =
    match state.best_perf with
    | Some perf -> perf
    | None -> Evaluator.model state.evaluator best_config (* an absorbed incumbent *)
  in
  (* A run whose every candidate was invalid (e.g. all quarantined
     under fault injection) still "finishes" — with best_value 0 and a
     schedule nobody should apply.  Flag it here so consumers can
     check [best_perf.valid] ([succeeded]) instead of trusting the
     zero. *)
  if not best_perf.Ft_hw.Perf.valid then begin
    Ft_obs.Trace.incr "driver.invalid_best";
    if Ft_obs.Trace.active () then
      Ft_obs.Trace.event "driver.invalid_best"
        [ ("note", Str (Ft_hw.Perf.note best_perf)) ]
  end;
  {
    method_name;
    best_config;
    best_value;
    best_perf;
    history = List.rev state.samples;
    n_evals = Evaluator.n_evals state.evaluator;
    sim_time_s = Evaluator.clock state.evaluator;
  }

(* A result is only usable if its best schedule is actually valid; a
   best_value of 0. from an all-invalid run is not a success. *)
let succeeded (result : result) = result.best_perf.Ft_hw.Perf.valid
