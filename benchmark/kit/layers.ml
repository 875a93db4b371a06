(* Per-layer metrics of a traced run.

   Two sources.  The traced pass's JSONL gives spans and counters at the
   hook boundaries (bench.job, bench.cost_model, bench.measure,
   bench.store_load) and the library's own (trial, driver.seed,
   pool.map; eval.*, pool.*, measure.* counters).  Layers with no hook
   of their own — the Q-network, neighbourhood/feature/key work, store
   queries, lowering and compiling — are timed afterwards by replaying
   configs sampled from the workload's own spaces through each layer's
   public function.  A metric is 0 on a workload that never runs its
   layer. *)

module Monotime = Flextensor.Monotime
module Space = Flextensor.Space
module Store = Flextensor.Store
module Agent = Ft_qlearn.Agent
module Rng = Ft_util.Rng

(* Mean seconds per call of [f], cycling through [xs] until at least
   [min_s] has passed. *)
let per_call ?(min_s = 0.05) f xs =
  match xs with
  | [] -> 0.
  | _ ->
      let t0 = Monotime.now_s () in
      let calls = ref 0 in
      while !calls = 0 || Monotime.elapsed_s t0 < min_s do
        List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
        calls := !calls + List.length xs
      done;
      Monotime.elapsed_s t0 /. float_of_int !calls

let wall f =
  let t0 = Monotime.now_s () in
  let r = f () in
  (r, Monotime.elapsed_s t0)

let first n xs = List.filteri (fun i _ -> i < n) xs

let distinct_by key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

(* Q-network: one 4-row forward (the Q-method's lockstep frontier of
   four walks) and one [Agent.record], training rounds included. *)
let qnet rng spaces =
  let agents =
    List.map
      (fun space ->
        let n_actions = List.length (Flextensor.Neighborhood.directions space) in
        let feature_dim = Space.feature_dim space in
        let agent = Agent.create (Rng.split rng) ~feature_dim ~n_actions in
        let features () = Space.features space (Space.random_config rng space) in
        (agent, n_actions, features))
      spaces
  in
  let forward_s =
    per_call
      (fun (agent, states) -> Agent.q_values_batch agent states)
      (List.map (fun (agent, _, features) -> (agent, Array.init 4 (fun _ -> features ()))) agents)
  in
  let transitions =
    List.concat_map
      (fun (agent, n_actions, features) ->
        List.init 40 (fun _ ->
            ( agent,
              {
                Agent.state = features ();
                action = Rng.int rng n_actions;
                reward = Rng.float rng 2. -. 1.;
                next_state = features ();
                next_valid = List.init n_actions Fun.id;
              } )))
      agents
  in
  (* Every record advances the agent, so each transition is recorded
     once rather than cycled. *)
  let _, record_s =
    wall (fun () -> List.iter (fun (agent, tr) -> ignore (Agent.record agent tr)) transitions)
  in
  (forward_s, record_s /. float_of_int (max 1 (List.length transitions)))

(* At most a dozen distinct (graph, target) pairs that run a search. *)
let search_spaces jobs =
  List.map Spec.space
    (first 12 @@ distinct_by
       (fun (j : Spec.job) -> (j.graph, j.target))
       (List.filter (fun (j : Spec.job) -> j.kind <> Spec.Hit) jobs))

(* Lowering, compiling and in-process kernel runs of the first 16
   distinct winners, and the median sandboxed measurement of the same
   winners (already at reference speed). *)
let kernels jobs (results : Child.result list) =
  let winners =
    first 16 @@ distinct_by
      (fun ((j : Spec.job), (r : Child.result)) -> (j.graph, r.config))
      (List.filter (fun (_, (r : Child.result)) -> r.error = None) (List.combine jobs results))
  in
  let programs =
    List.filter_map
      (fun ((j : Spec.job), (r : Child.result)) ->
        let space = Spec.space j in
        match Flextensor.Config_io.of_string_for space r.config with
        | Ok cfg -> Some (space, cfg, Child.at_ref r r.measure_s)
        | Error _ -> None)
      winners
  in
  let lower_s =
    per_call (fun (space, cfg, _) -> Flextensor.Lowering.lower space cfg) programs
  in
  let compile_s =
    per_call Flextensor.Compile.compile
      (List.map (fun (space, cfg, _) -> Flextensor.Lowering.lower space cfg) programs)
  in
  let runs =
    List.map
      (fun (space, cfg, sandboxed_s) ->
        let perf, in_process_s = wall (fun () -> Flextensor.Measure.run space cfg) in
        (perf, in_process_s, sandboxed_s))
      programs
  in
  let gflops =
    List.filter_map
      (fun ((p : Flextensor.Perf.t), _, _) ->
        if p.valid && p.gflops > 0. then Some p.gflops else None)
      runs
  in
  let in_process = List.map (fun (_, s, _) -> s) runs in
  let sandboxed = List.map (fun (_, _, s) -> s) runs in
  let median = Summary.(or_zero median) in
  ( lower_s,
    compile_s,
    median in_process,
    Summary.or_zero Ft_util.Stats.geomean gflops,
    median sandboxed )

(* Store queries against the log as it was loaded, and appends to a
   scratch file-backed store. *)
let store_ops ~scratch log jobs =
  let store = Store.create () in
  List.iter (Store.add store) log;
  (* Store.nearest costs tens of ms at this log size: eight misses. *)
  let of_kind kind = first 8 (List.filter (fun (j : Spec.job) -> j.kind = kind) jobs) in
  let keys_of kind =
    List.map (fun j -> Flextensor.Store_record.key_of_space (Spec.space j)) (of_kind kind)
  in
  let method_name = Spec.reuse_search in
  let best_exact_s = per_call (Store.best_exact ~method_name store) (keys_of Spec.Hit) in
  let nearest_s = per_call ~min_s:0. (Store.nearest ~method_name store) (keys_of Spec.Miss) in
  let transfer_s =
    per_call ~min_s:0.
      (Flextensor.Transfer.seeds ~method_name store)
      (List.map Spec.space (of_kind Spec.Miss))
  in
  let path = Filename.concat scratch "appends.jsonl" in
  let appended = Store.create ~path () in
  let sample = first 200 log in
  let _, add_s = wall (fun () -> List.iter (Store.add appended) sample) in
  Sys.remove path;
  (best_exact_s, nearest_s, add_s /. float_of_int (max 1 (List.length sample)), transfer_s)

(* Every time is reported at reference host speed (see Calibrate):
   span times divided by the traced pass's median host factor, replay
   times by the factor measured around the replays. *)
let compute (w : Spec.t) ~seed ~jobs ~(untraced : Child.pass) ~(traced : Child.pass)
    ~fold ~log ~scratch =
  let open Trace_file in
  let rng = Rng.create seed in
  let spaces = search_spaces jobs in
  let configs =
    List.concat_map
      (fun space -> List.init 4 (fun _ -> (space, Space.random_config rng space)))
      spaces
  in
  (* -- replays, between two calibrations *)
  let before = Calibrate.time () in
  let forward_s, record_s = qnet rng spaces in
  let neighbors_s =
    per_call (fun (space, cfg) -> Flextensor.Neighborhood.neighbors space cfg) configs
  in
  let features_s = per_call (fun (space, cfg) -> Space.features space cfg) configs in
  let key_s = per_call (fun (_, cfg) -> Flextensor.Config.compute_key cfg) configs in
  let cost_s = per_call (fun (space, cfg) -> Ft_hw.Cost.evaluate space cfg) configs in
  let lower_s, compile_s, kernel_s, kernel_gflops, sandboxed_s =
    if w.measured then kernels jobs traced.results else (0., 0., 0., 0., 0.)
  in
  let best_exact_s, nearest_s, add_s, transfer_s =
    if w.reuse then store_ops ~scratch log jobs else (0., 0., 0., 0.)
  in
  let replay_factor = Calibrate.factor ~before ~after:(Calibrate.time ()) in
  let us s = s *. 1e6 /. replay_factor and ms s = s *. 1e3 /. replay_factor in
  (* -- the traced pass *)
  let span_factor =
    Summary.median (List.map (fun (r : Child.result) -> r.host_factor) traced.results)
  in
  let total name = (row fold name).total_s /. span_factor in
  let self name = (row fold name).self_s /. span_factor in
  let tune_s = Child.busy_s traced in
  (* Span shares are of raw job time, like the raw spans they divide. *)
  let raw_tune_s =
    List.fold_left (fun acc (r : Child.result) -> acc +. r.wall_s) 0. traced.results
  in
  (* One Agent.record per committed Q-method step (each fires a
     q.epsilon gauge); the frontier forward is shared by up to four. *)
  let qnet_s = count fold "q.epsilon" *. (record_s +. (forward_s /. 4.)) /. replay_factor in
  let fresh = float_of_int (counter fold "eval.fresh")
  and hits = float_of_int (counter fold "eval.cache_hit") in
  let batches = count fold "eval.batch" in
  let pool_wall = total "pool.map" in
  let pool_busy = float_of_int (counter fold "bench.pool_busy_ns") /. 1e9 /. span_factor in
  let attributed =
    List.fold_left
      (fun acc r ->
        if r.name = "bench.job" || r.name = "bench.store_load" then acc else acc +. r.self_s)
      0. (rows fold)
  in
  let faults =
    List.fold_left
      (fun acc c -> acc + counter fold c)
      0
      [ "measure.timeout"; "measure.crashed"; "measure.oom"; "measure.protocol_error" ]
  in
  let measures = row fold "bench.measure" in
  let per_measure_ms =
    if measures.calls = 0 then 0.
    else 1e3 *. total "bench.measure" /. float_of_int measures.calls
  in
  [
    ("search.trials", float_of_int (row fold "trial").calls);
    ("search.self_s", self "trial" +. self "driver.seed");
    ("qnet.forward_us", us forward_s);
    ("qnet.record_us", us record_s);
    ("qnet.share", qnet_s /. tune_s);
    ("sched.neighbors_us", us neighbors_s);
    ("sched.features_us", us features_s);
    ("sched.key_us", us key_s);
    ("cost.calls", float_of_int (counter fold "bench.cost_calls"));
    ("cost.eval_us", us cost_s);
    ("cost.share", (row fold "bench.cost_model").total_s /. raw_tune_s);
    ("eval.fresh", fresh);
    ("eval.cache_hit", hits);
    ("eval.hit_ratio", if fresh +. hits > 0. then hits /. (fresh +. hits) else 0.);
    ("eval.batch_mean", if batches > 0. then sum fold "eval.batch" "n" /. batches else 0.);
    ("pool.regions", float_of_int (counter fold "pool.regions"));
    ("pool.wall_s", pool_wall);
    ("pool.busy_s", pool_busy);
    ( "pool.efficiency",
      if pool_wall > 0. then pool_busy /. (pool_wall *. float_of_int w.lanes) else 0. );
    ("lower.us", us lower_s);
    ("compile.us", us compile_s);
    ("kernel.ms", ms kernel_s);
    ("kernel.gflops", kernel_gflops);
    ("sandbox.calls", float_of_int (counter fold "measure.sandboxed"));
    ("sandbox.ms", per_measure_ms);
    ("sandbox.overhead_ms", if w.measured then (1e3 *. sandboxed_s) -. ms kernel_s else 0.);
    ("sandbox.faults", float_of_int faults);
    ("sandbox.retries", float_of_int (counter fold "measure.retry"));
    ("store.load_s", total "bench.store_load");
    ("store.records", float_of_int (List.length log));
    ("store.best_exact_us", us best_exact_s);
    ("store.nearest_ms", ms nearest_s);
    ("store.add_us", us add_s);
    ("transfer.seeds_ms", ms transfer_s);
    ("other_s", (raw_tune_s -. attributed) /. span_factor);
    ("trace.overhead_frac", (tune_s /. Child.busy_s untraced) -. 1.);
  ]
