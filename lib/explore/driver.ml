module Tbl = Ft_schedule.Config.Tbl

type sample = { at_s : float; n_evals : int; best_value : float }

type result = {
  best_config : Ft_schedule.Config.t;
  best_value : float;
  best_perf : Ft_hw.Perf.t;
  history : sample list;  (* best-so-far progression, chronological *)
  n_evals : int;
  sim_time_s : float;
}

type state = {
  evaluator : Evaluator.t;
  dispatch : Evaluator.dispatch option;  (* external backend for fresh points *)
  max_evals : int;  (* evaluate_batch's budget; max_int = none *)
  index : int Tbl.t;  (* config -> pool index of its first occurrence *)
  pool : Ft_schedule.Config.t Ft_anneal.Sa.pool;  (* the set H *)
  mutable best : Ft_schedule.Config.t * float;
  mutable best_perf : Ft_hw.Perf.t option;  (* None unless measured here *)
  mutable samples : sample list;  (* reverse chronological *)
  mutable lanes : int;  (* simulated devices minus injected lane deaths *)
  mutable clock_s : float;
  mutable n_evals : int;
}

let seen state cfg = Tbl.mem state.index cfg
let value state cfg =
  Option.map (Ft_anneal.Sa.value state.pool) (Tbl.find_opt state.index cfg)
let charge state seconds = state.clock_s <- state.clock_s +. seconds
let clock state = state.clock_s
let n_evals state = state.n_evals

let out_of_budget state = state.n_evals >= state.max_evals

(* Append a point to H, update the incumbent; [perf] is the model
   result of a point measured here. *)
let push state cfg value perf =
  Ft_anneal.Sa.add state.pool cfg value;
  Ft_obs.Trace.incr "driver.commits";
  if value > snd state.best then begin
    state.best <- (cfg, value);
    state.best_perf <- perf;
    if Ft_obs.Trace.active () then
      Ft_obs.Trace.event "driver.incumbent"
        [
          ("value", Float value); ("clock_s", Float state.clock_s); ("n_evals", Int state.n_evals);
        ]
  end;
  state.samples <-
    { at_s = state.clock_s; n_evals = state.n_evals; best_value = snd state.best }
    :: state.samples

let absorb state cfg value =
  if not (seen state cfg) then Tbl.add state.index cfg (Ft_anneal.Sa.size state.pool);
  push state cfg value None

(* With a dispatch (the benchmark's traced pass), the fresh points the
   loop will commit — first occurrences not in H, up to the budget when
   it applies — go to it in one call, as [(config, key)] pairs. *)
let compute_with state ~seeding cfgs =
  match state.dispatch with
  | None -> Evaluator.compute state.evaluator
  | Some dispatch ->
      let room = if seeding then max_int else state.max_evals - state.n_evals in
      let todo = Tbl.create 64 in
      let fresh =
        List.filter
          (fun cfg ->
            let first = Tbl.length todo < room && not (seen state cfg || Tbl.mem todo cfg) in
            if first then Tbl.add todo cfg ();
            first)
          cfgs
      in
      let computed = Tbl.create (List.length fresh) in
      if fresh <> [] then
        List.iter2 (Tbl.replace computed) fresh
          (dispatch (List.map (fun cfg -> (cfg, Ft_schedule.Config.compute_key cfg)) fresh));
      Tbl.find computed

(* The one commit loop: points are committed strictly in input order,
   so every search result is decided by commit order alone.  Waves
   model the paper's multi-device measurement: the devices measure
   concurrently and a wave takes as long as its slowest lane.  They
   fill up to the *live* lane count, so an injected lane death shrinks
   every later wave; at [n_parallel = 1] each fresh point is charged
   before it is pushed.  Returns the fresh count. *)
let commit state ~seeding cfgs =
  let compute = compute_with state ~seeding cfgs in
  let n0 = state.n_evals and wave_len = ref 0 and wave_max = ref 0. in
  let flush () =
    if !wave_len > 0 then begin
      charge state !wave_max;
      if Ft_obs.Trace.active () then
        Ft_obs.Trace.event "eval.wave"
          [
            ("n", Int !wave_len); ("cost_s", Float !wave_max); ("clock_s", Float state.clock_s);
          ];
      wave_len := 0;
      wave_max := 0.
    end
  in
  let lane_dead () =
    state.lanes <- max 1 (state.lanes - 1);
    if Ft_obs.Trace.active () then
      Ft_obs.Trace.event "pool.lane_dead" [ ("live", Int state.lanes) ]
  in
  let rec go = function
    | cfg :: rest when seeding || not (out_of_budget state) ->
        (match Tbl.find_opt state.index cfg with
        | Some i ->
            if seeding then begin
              (* A hit re-enters H at its first value. *)
              charge state Evaluator.hit_cost;
              Ft_obs.Trace.incr "eval.cache_hit";
              push state cfg (Ft_anneal.Sa.value state.pool i) None
            end
        | None ->
            let (value, perf), cost =
              Evaluator.price state.evaluator ~lane_dead cfg (compute cfg)
            in
            state.n_evals <- state.n_evals + 1;
            incr wave_len;
            wave_max := Float.max !wave_max cost;
            if !wave_len >= state.lanes then flush ();
            if Ft_obs.Trace.active () then begin
              Ft_obs.Trace.incr "eval.fresh";
              Ft_obs.Trace.event "eval.measure"
                [
                  ("value", Float value); ("cost_s", Float cost); ("n_evals", Int state.n_evals);
                ]
            end;
            Tbl.add state.index cfg (Ft_anneal.Sa.size state.pool);
            push state cfg value (Some perf));
        go rest
    | _ -> ()
  in
  go cfgs;
  flush ();
  let fresh = state.n_evals - n0 in
  if Ft_obs.Trace.active () then Ft_obs.Trace.event "eval.batch" [ ("n", Int fresh) ];
  fresh

let evaluate_batch state cfgs = commit state ~seeding:false cfgs

let init ?(n_parallel = 1) ?dispatch ?(max_evals = max_int) evaluator initial =
  if n_parallel < 1 then invalid_arg "Driver.init: n_parallel must be >= 1";
  match initial with
  | [] -> invalid_arg "Driver.init: need at least one initial point"
  | first :: _ ->
      let state =
        {
          evaluator;
          dispatch;
          max_evals;
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
          lanes = n_parallel;
          clock_s = 0.;
          n_evals = 0;
        }
      in
      Ft_obs.Trace.with_span "driver.seed"
        ~fields:[ ("n", Int (List.length initial)) ]
        (fun () ->
          ignore (commit state ~seeding:true initial);
          state)

(* Reporting charges and counts nothing, so the clock and counters
   describe the search alone. *)
let finish state =
  let best_config, best_value = state.best in
  let best_perf =
    match state.best_perf with
    | Some perf -> perf
    | None -> snd (Evaluator.compute state.evaluator best_config) (* an absorbed incumbent *)
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
    best_config;
    best_value;
    best_perf;
    history = List.rev state.samples;
    n_evals = state.n_evals;
    sim_time_s = state.clock_s;
  }

(* A result is only usable if its best schedule is actually valid; a
   best_value of 0. from an all-invalid run is not a success. *)
let succeeded (result : result) = result.best_perf.Ft_hw.Perf.valid
