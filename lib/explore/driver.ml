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
  visited : unit Tbl.t;
  pool : Ft_schedule.Config.t Ft_anneal.Sa.pool;  (* the set H *)
  mutable best : Ft_schedule.Config.t * float;
  mutable samples : sample list;  (* reverse chronological *)
}

let visit state cfg = Tbl.replace state.visited cfg ()

let seen state cfg = Tbl.mem state.visited cfg

let record_sample state =
  state.samples <-
    {
      at_s = Evaluator.clock state.evaluator;
      n_evals = Evaluator.n_evals state.evaluator;
      best_value = snd state.best;
    }
    :: state.samples

(* Fold a point into H, update the incumbent. *)
let absorb state cfg value =
  visit state cfg;
  Ft_anneal.Sa.add state.pool cfg value;
  Ft_obs.Trace.incr "driver.commits";
  if value > snd state.best then begin
    state.best <- (cfg, value);
    if Ft_obs.Trace.active () then
      Ft_obs.Trace.event "driver.incumbent"
        [
          ("value", Float value);
          ("clock_s", Float (Evaluator.clock state.evaluator));
          ("n_evals", Int (Evaluator.n_evals state.evaluator));
        ]
  end;
  record_sample state;
  value

(* Evaluate a point, fold it into H, update the incumbent. *)
let evaluate state cfg =
  absorb state cfg (Evaluator.measure state.evaluator cfg)

(* Batched frontier evaluation: skip already-visited points and
   in-batch duplicates, then commit the rest in input order through
   {!Evaluator.commit_batch}, stopping at the first point for which
   [should_stop] holds (the search's eval budget) — exactly the
   decisions the sequential per-point loop would have made.  Returns
   the committed points with their values, in order. *)
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
  Evaluator.commit_batch state.evaluator ~should_stop fresh (fun cfg value ->
      committed := (cfg, absorb state cfg value) :: !committed);
  List.rev !committed

let init evaluator initial =
  match initial with
  | [] -> invalid_arg "Driver.init: need at least one initial point"
  | first :: _ ->
      let state =
        {
          evaluator;
          visited = Tbl.create 1024;
          pool = Ft_anneal.Sa.pool ();
          (* Seed the incumbent below every representable value so the
             first committed point is absorbed unconditionally: a 0.
             seed would survive any run whose measured values are all
             <= 0, and [finish] would then report best_value = 0. for
             a config never measured at that value. *)
          best = (first, neg_infinity);
          samples = [];
        }
      in
      Ft_obs.Trace.with_span "driver.seed"
        ~fields:[ ("n", Int (List.length initial)) ]
        (fun () ->
          (* Unlike [evaluate_batch], seeding keeps duplicate inputs in H
             (as cache hits), matching the sequential per-point loop. *)
          Evaluator.commit_batch evaluator ~should_stop:(fun () -> false) initial
            (fun cfg value -> ignore (absorb state cfg value));
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

let finish ~method_name state =
  (* Snapshot the accounting before assembling anything: the clock and
     counters must describe the search alone.  (The old code called
     [Evaluator.perf_of] inside the record literal, charging a cache
     hit during *reporting* — and since OCaml leaves record-field
     evaluation order unspecified, [sim_time_s] may or may not have
     included that charge.) *)
  let sim_time_s = Evaluator.clock state.evaluator in
  let n_evals = Evaluator.n_evals state.evaluator in
  let best_config, best_value = state.best in
  let best_perf =
    match Evaluator.peek state.evaluator best_config with
    | Some (_, perf) -> perf
    | None ->
        (* Only reachable for externally [absorb]ed points that never
           went through the evaluator; the snapshots above keep even
           this fallback out of the reported accounting. *)
        Evaluator.perf_of state.evaluator best_config
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
    n_evals;
    sim_time_s;
  }

(* A result is only usable if its best schedule is actually valid; a
   best_value of 0. from an all-invalid run is not a success. *)
let succeeded (result : result) = result.best_perf.Ft_hw.Perf.valid
