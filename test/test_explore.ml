open Ft_schedule

let check_bool = Alcotest.(check bool)
let params = Ft_explore.Search_loop.default_params

let gemm_space ?(target = Target.v100) () =
  Space.make (Ft_ir.Operators.gemm ~m:256 ~n:256 ~k:256) target

let test_evaluator_caching () =
  let space = gemm_space () in
  let evaluator = Ft_explore.Evaluator.create space in
  let cfg = Space.default_config space in
  let v1 = Ft_explore.Evaluator.measure evaluator cfg in
  let t1 = Ft_explore.Evaluator.clock evaluator in
  let v2 = Ft_explore.Evaluator.measure evaluator cfg in
  let t2 = Ft_explore.Evaluator.clock evaluator in
  Alcotest.(check (float 1e-9)) "cached value" v1 v2;
  Alcotest.(check int) "one distinct eval" 1 (Ft_explore.Evaluator.n_evals evaluator);
  check_bool "cache hit is much cheaper" true (t2 -. t1 < 0.01)

(* Simulated seconds charged for one fresh point of [target]'s space. *)
let first_point_clock target =
  let space = gemm_space ~target () in
  let evaluator = Ft_explore.Evaluator.create space in
  ignore (Ft_explore.Evaluator.measure evaluator (Space.default_config space));
  Ft_explore.Evaluator.clock evaluator

let test_evaluator_charges_hardware_cost () =
  check_bool "at least compile cost" true (first_point_clock Target.v100 >= 0.3)

let test_evaluator_model_mode_cheap () =
  check_bool "model query cheap" true (first_point_clock Target.vu9p < 0.01)

(* The target decides: CPU and GPU points are measured, FPGA points
   are model queries. *)
let test_fpga_defaults_to_model () =
  check_bool "fpga model mode" true (first_point_clock Target.vu9p < 0.01);
  check_bool "cpu hardware mode" true (first_point_clock Target.xeon_e5_2699_v4 >= 0.3);
  check_bool "gpu hardware mode" true (first_point_clock Target.v100 >= 0.3)

let history_nondecreasing (result : Ft_explore.Driver.result) =
  let rec go best = function
    | [] -> true
    | (s : Ft_explore.Driver.sample) :: rest ->
        s.best_value >= best -. 1e-9 && go s.best_value rest
  in
  go 0. result.history

let test_q_method_improves_and_is_deterministic () =
  let space = gemm_space () in
  let a =
    Ft_explore.Q_method.search_params
      { params with seed = 1; n_trials = 20 } space
  in
  let b =
    Ft_explore.Q_method.search_params
      { params with seed = 1; n_trials = 20 } space
  in
  check_bool "deterministic" true (Config.equal a.best_config b.best_config);
  Alcotest.(check (float 1e-9)) "same value" a.best_value b.best_value;
  check_bool "improves on naive" true
    (a.best_value
    > Ft_hw.Cost.perf_value space (Ft_hw.Cost.evaluate space (Space.default_config space))
    );
  check_bool "history monotone" true (history_nondecreasing a);
  check_bool "best config valid" true (Space.valid space a.best_config)

let test_p_method_runs () =
  let space = gemm_space () in
  let result =
    Ft_explore.P_method.search_params
      { params with seed = 1; n_trials = 5 } space
  in
  check_bool "found something" true (result.best_value > 0.);
  check_bool "history monotone" true (history_nondecreasing result)

let test_random_method_runs () =
  let space = gemm_space () in
  let result =
    Ft_explore.Random_method.search_params
      { params with seed = 1; n_trials = 50 } space
  in
  check_bool "found something" true (result.best_value > 0.)

let test_max_evals_budget () =
  let space = gemm_space () in
  let result =
    Ft_explore.Q_method.search_params
      { params with seed = 1; n_trials = 1000; max_evals = Some 30 } space
  in
  check_bool "stopped at budget" true (result.n_evals <= 40)

let test_q_beats_random_at_equal_budget () =
  let space = gemm_space () in
  let q =
    Ft_explore.Q_method.search_params
      { params with seed = 3; n_trials = 1000; max_evals = Some 150 } space
  in
  let r =
    Ft_explore.Random_method.search_params
      { params with seed = 3; n_trials = 1000; max_evals = Some 150 } space
  in
  check_bool "guided beats random" true (q.best_value > r.best_value)

let test_invalid_configs_charged_failed_compile () =
  let space = gemm_space () in
  let evaluator = Ft_explore.Evaluator.create space in
  let cfg = Space.default_config space in
  cfg.spatial.(0).(0) <- 7 (* outside the space *);
  let value = Ft_explore.Evaluator.measure evaluator cfg in
  Alcotest.(check (float 0.)) "zero value" 0. value;
  let clock = Ft_explore.Evaluator.clock evaluator in
  check_bool "cheap failure" true (clock < 0.3)

let test_cold_start_option () =
  let space = gemm_space () in
  let warm =
    Ft_explore.Q_method.search_params
      { params with seed = 4; n_trials = 5 } space
  in
  let cold =
    Ft_explore.Q_method.search_params
      { params with seed = 4; n_trials = 5; heuristic_seeds = false } space
  in
  (* with seeds, the first evaluations already include good points *)
  check_bool "warm at least as good at tiny budgets" true
    (warm.best_value >= cold.best_value *. 0.5);
  check_bool "both positive" true (cold.best_value > 0.)

(* Regression: Driver.init used to seed the incumbent as (first, 0.),
   so when every evaluated value was <= 0 the reported best was a
   fabricated pair never actually measured.  The cost model itself
   never yields negative values, so inject them through [absorb]. *)
let test_incumbent_tracks_max_of_history () =
  let space = gemm_space () in
  let evaluator = Ft_explore.Evaluator.create space in
  let state = Ft_explore.Driver.init evaluator [ Space.default_config space ] in
  let distinct =
    (* random configs keyed for uniqueness, skipping the seed point *)
    let rng = Ft_util.Rng.create 99 in
    let rec gather acc n =
      if n = 0 then acc
      else
        let cfg = Space.random_config rng space in
        if Ft_explore.Driver.seen state cfg || List.exists (Config.equal cfg) acc
        then gather acc n
        else gather (cfg :: acc) (n - 1)
    in
    gather [] 3
  in
  (match distinct with
  | [ a; b; c ] ->
      ignore (Ft_explore.Driver.absorb state a (-10.));
      ignore (Ft_explore.Driver.absorb state b (-2.));
      ignore (Ft_explore.Driver.absorb state c (-7.))
  | _ -> Alcotest.fail "expected 3 configs");
  let result = Ft_explore.Driver.finish ~method_name:"test" state in
  let in_history =
    List.exists
      (fun (cfg, value) ->
        Config.equal cfg result.best_config
        && value = result.best_value)
      (Ft_anneal.Sa.to_list state.pool)
  in
  check_bool "best is a measured pair" true in_history;
  (* the seed point is valid, so it (value > 0) must beat the injected
     negatives; the incumbent is the max over H *)
  Alcotest.(check (float 1e-9)) "incumbent is max of H"
    (List.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity
       (Ft_anneal.Sa.to_list state.pool))
    result.best_value

let test_driver_rejects_empty_init () =
  let space = gemm_space () in
  let evaluator = Ft_explore.Evaluator.create space in
  Alcotest.check_raises "empty init"
    (Invalid_argument "Driver.init: need at least one initial point") (fun () ->
      ignore (Ft_explore.Driver.init evaluator []))

(* Regression: [peek] must never charge the clock or bump counters —
   it exists so that reporting can look up a cached measurement
   without polluting the accounting the way [perf_of] does. *)
let test_peek_does_not_charge () =
  let space = gemm_space () in
  let evaluator = Ft_explore.Evaluator.create space in
  let cfg = Space.default_config space in
  check_bool "unmeasured peek is None" true
    (Ft_explore.Evaluator.peek evaluator cfg = None);
  Alcotest.(check (float 0.)) "miss did not charge" 0.
    (Ft_explore.Evaluator.clock evaluator);
  let value = Ft_explore.Evaluator.measure evaluator cfg in
  let clock = Ft_explore.Evaluator.clock evaluator in
  let n = Ft_explore.Evaluator.n_evals evaluator in
  (match Ft_explore.Evaluator.peek evaluator cfg with
  | Some (v, _) -> Alcotest.(check (float 0.)) "peek sees cached value" value v
  | None -> Alcotest.fail "measured config not peekable");
  Alcotest.(check (float 0.)) "peek did not charge" clock
    (Ft_explore.Evaluator.clock evaluator);
  Alcotest.(check int) "peek did not count" n
    (Ft_explore.Evaluator.n_evals evaluator)

(* Regression: [finish] used to call [Evaluator.perf_of] while
   assembling the result record, charging a reporting-time cache hit
   whose inclusion in [sim_time_s] depended on unspecified record
   evaluation order.  The report must equal the pre-finish clock
   exactly, and finishing must not move the evaluator's clock. *)
let test_finish_leaves_clock_untouched () =
  let space = gemm_space () in
  let evaluator = Ft_explore.Evaluator.create space in
  let state = Ft_explore.Driver.init evaluator [ Space.default_config space ] in
  let rng = Ft_util.Rng.create 7 in
  for _ = 1 to 5 do
    ignore (Ft_explore.Driver.evaluate state (Space.random_config rng space))
  done;
  let clock = Ft_explore.Evaluator.clock evaluator in
  let n = Ft_explore.Evaluator.n_evals evaluator in
  let result = Ft_explore.Driver.finish ~method_name:"test" state in
  Alcotest.(check (float 0.)) "report equals pre-finish clock" clock
    result.sim_time_s;
  Alcotest.(check int) "report equals pre-finish count" n result.n_evals;
  Alcotest.(check (float 0.)) "finish did not charge" clock
    (Ft_explore.Evaluator.clock evaluator);
  Alcotest.(check int) "finish did not count" n
    (Ft_explore.Evaluator.n_evals evaluator)

(* Even when the best point was absorbed from outside the evaluator
   (so [finish] must fall back to [perf_of]), the *reported* clock and
   count are snapshots taken before the fallback. *)
let test_finish_snapshot_covers_absorbed_best () =
  let space = gemm_space () in
  let evaluator = Ft_explore.Evaluator.create space in
  let state = Ft_explore.Driver.init evaluator [ Space.default_config space ] in
  let rng = Ft_util.Rng.create 11 in
  let outside =
    let rec fresh () =
      let cfg = Space.random_config rng space in
      if Ft_explore.Driver.seen state cfg then fresh () else cfg
    in
    fresh ()
  in
  ignore (Ft_explore.Driver.absorb state outside 1e9);
  let clock = Ft_explore.Evaluator.clock evaluator in
  let n = Ft_explore.Evaluator.n_evals evaluator in
  let result = Ft_explore.Driver.finish ~method_name:"test" state in
  Alcotest.(check (float 0.)) "report clock is the snapshot" clock
    result.sim_time_s;
  Alcotest.(check int) "report count is the snapshot" n result.n_evals

(* -- batched evaluation -------------------------------------------- *)

let small_gemm_space ?(target = Target.v100) () =
  Space.make (Ft_ir.Operators.gemm ~m:64 ~n:64 ~k:64) target

let distinct_configs space n =
  let rng = Ft_util.Rng.create 5 in
  let seen = Config.Tbl.create n in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let cfg = Space.random_config rng space in
      if Config.Tbl.mem seen cfg then go acc k
      else begin
        Config.Tbl.add seen cfg ();
        go (cfg :: acc) (k - 1)
      end
  in
  go [] n

(* Every committed point with its value, in input order. *)
let commit_all evaluator cfgs =
  let out = ref [] in
  Ft_explore.Evaluator.commit_batch evaluator ~should_stop:(fun () -> false) cfgs
    (fun cfg value -> out := (cfg, value) :: !out);
  List.rev !out

let test_commit_batch_matches_sequential () =
  let space = small_gemm_space () in
  let cfgs = distinct_configs space 40 in
  let seq = Ft_explore.Evaluator.create space in
  let seq_values = List.map (fun cfg -> (cfg, Ft_explore.Evaluator.measure seq cfg)) cfgs in
  let batched = Ft_explore.Evaluator.create space in
  let values = commit_all batched cfgs in
  check_bool "same values" true
    (List.for_all2 (fun (_, a) (_, b) -> Float.equal a b) seq_values values);
  Alcotest.(check int) "same eval count"
    (Ft_explore.Evaluator.n_evals seq)
    (Ft_explore.Evaluator.n_evals batched);
  Alcotest.(check (float 1e-9)) "same clock at n_parallel=1"
    (Ft_explore.Evaluator.clock seq)
    (Ft_explore.Evaluator.clock batched)

let test_commit_batch_clock_max_over_lanes () =
  let space = small_gemm_space ~target:Target.vu9p () in
  let cfgs = distinct_configs space 12 in
  (* An FPGA model query charges a constant per fresh point, so
     n_parallel = k must shrink the batched clock by exactly k (12
     waves of 1 vs 3 waves of 4, max = the constant either way). *)
  let clock_at n_parallel =
    let evaluator = Ft_explore.Evaluator.create ~n_parallel space in
    ignore (commit_all evaluator cfgs);
    Ft_explore.Evaluator.clock evaluator
  in
  Alcotest.(check (float 1e-12)) "4 lanes = 1/4 clock"
    (clock_at 1 /. 4.) (clock_at 4);
  (* A partial final wave still charges: 12 points at n_parallel = 8
     is ceil(12/8) = 2 waves. *)
  Alcotest.(check (float 1e-12)) "partial wave charged"
    (clock_at 1 /. 6.) (clock_at 8)

let test_commit_batch_duplicates_hit_cache () =
  let space = small_gemm_space () in
  let cfg = Space.default_config space in
  let evaluator = Ft_explore.Evaluator.create space in
  let results = commit_all evaluator [ cfg; cfg; cfg ] in
  Alcotest.(check int) "one distinct eval" 1 (Ft_explore.Evaluator.n_evals evaluator);
  Alcotest.(check int) "every input answered" 3 (List.length results);
  let values = List.map snd results in
  check_bool "same value for duplicates" true
    (List.for_all (Float.equal (List.hd values)) values)

let driver_fingerprint (state : Ft_explore.Driver.state) =
  ( List.map
      (fun (cfg, v) -> (Config.compute_key cfg, v))
      (Ft_anneal.Sa.to_list state.pool),
    (Config.compute_key (fst state.best), snd state.best),
    List.map
      (fun (s : Ft_explore.Driver.sample) -> (s.at_s, s.n_evals, s.best_value))
      state.samples )

let test_evaluate_batch_matches_sequential_driver () =
  let space = small_gemm_space () in
  let cfgs = distinct_configs space 30 in
  let with_dups = cfgs @ List.filteri (fun i _ -> i mod 3 = 0) cfgs in
  let seed_cfg = Space.default_config space in
  let seq_state =
    Ft_explore.Driver.init (Ft_explore.Evaluator.create space) [ seed_cfg ]
  in
  List.iter
    (fun cfg ->
      if not (Ft_explore.Driver.seen seq_state cfg) then
        ignore (Ft_explore.Driver.evaluate seq_state cfg))
    with_dups;
  let batch_state =
    Ft_explore.Driver.init (Ft_explore.Evaluator.create space) [ seed_cfg ]
  in
  ignore (Ft_explore.Driver.evaluate_batch batch_state with_dups);
  check_bool "identical driver state" true
    (driver_fingerprint seq_state = driver_fingerprint batch_state)

let test_evaluate_batch_budget_stop () =
  let space = small_gemm_space () in
  let cfgs = distinct_configs space 20 in
  let evaluator = Ft_explore.Evaluator.create space in
  let state = Ft_explore.Driver.init evaluator [ Space.default_config space ] in
  let committed =
    Ft_explore.Driver.evaluate_batch
      ~should_stop:(fun () -> Ft_explore.Evaluator.n_evals evaluator >= 8)
      state cfgs
  in
  Alcotest.(check int) "stopped at the budget" 8 (Ft_explore.Evaluator.n_evals evaluator);
  Alcotest.(check int) "committed up to the budget" 7 (List.length committed)

(* A dispatch that records its inputs sees each batch's uncached
   configs exactly once, in first-occurrence order: never a visited,
   cached or in-batch duplicate config, and no call for a batch with
   nothing fresh.  The run equals a dispatch-free one bit for bit. *)
let test_evaluate_batch_recording_dispatch () =
  let space = small_gemm_space () in
  let cfgs = distinct_configs space 18 in
  let a = List.filteri (fun i _ -> i < 10) cfgs in
  let nth i = List.nth cfgs i in
  let x1, x2, b0, b1, b2 = (nth 10, nth 11, nth 12, nth 13, nth 14) in
  let seed_cfg = Space.default_config space in
  let calls = ref [] in
  let dispatch pairs =
    List.iter
      (fun (cfg, key) ->
        Alcotest.(check string) "key" (Config.compute_key cfg) key)
      pairs;
    calls := List.map fst pairs :: !calls;
    List.map
      (fun (cfg, _) ->
        let perf = Ft_hw.Cost.evaluate space cfg in
        (Ft_hw.Cost.perf_value space perf, perf))
      pairs
  in
  let run evaluator =
    let state = Ft_explore.Driver.init evaluator [ seed_cfg ] in
    let r1 = Ft_explore.Driver.evaluate_batch state (a @ [ nth 0; nth 4; nth 9 ]) in
    (* Cached but not visited: measured outside the driver. *)
    ignore (Ft_explore.Evaluator.measure evaluator x1);
    ignore (Ft_explore.Evaluator.measure evaluator x2);
    let r2 =
      Ft_explore.Driver.evaluate_batch state [ nth 0; x1; b0; b1; b0; x2; b2; nth 1; b1 ]
    in
    let r3 = Ft_explore.Driver.evaluate_batch state a in
    (r1 @ r2 @ r3, driver_fingerprint state, Ft_explore.Evaluator.clock evaluator)
  in
  let dispatched = run (Ft_explore.Evaluator.create ~dispatch space) in
  let local = run (Ft_explore.Evaluator.create space) in
  check_bool "dispatch inputs" true
    (List.rev !calls = [ [ seed_cfg ]; a; [ b0; b1; b2 ] ]);
  let results (r, _, _) = List.map (fun (cfg, v) -> (cfg, Int64.bits_of_float v)) r in
  check_bool "same results" true (results dispatched = results local);
  let (_, fp_d, clock_d), (_, fp_l, clock_l) = (dispatched, local) in
  check_bool "same driver state" true (fp_d = fp_l);
  check_bool "same clock" true (Int64.bits_of_float clock_d = Int64.bits_of_float clock_l)

let () =
  Alcotest.run "ft_explore"
    [
      ( "evaluator",
        [
          Alcotest.test_case "caching" `Quick test_evaluator_caching;
          Alcotest.test_case "hardware cost" `Quick test_evaluator_charges_hardware_cost;
          Alcotest.test_case "model cost" `Quick test_evaluator_model_mode_cheap;
          Alcotest.test_case "mode defaults" `Quick test_fpga_defaults_to_model;
          Alcotest.test_case "peek does not charge" `Quick test_peek_does_not_charge;
        ] );
      ( "finish accounting",
        [
          Alcotest.test_case "clock untouched" `Quick
            test_finish_leaves_clock_untouched;
          Alcotest.test_case "absorbed best" `Quick
            test_finish_snapshot_covers_absorbed_best;
        ] );
      ( "methods",
        [
          Alcotest.test_case "q-method deterministic+improves" `Quick
            test_q_method_improves_and_is_deterministic;
          Alcotest.test_case "p-method" `Quick test_p_method_runs;
          Alcotest.test_case "random" `Quick test_random_method_runs;
          Alcotest.test_case "eval budget" `Quick test_max_evals_budget;
          Alcotest.test_case "q beats random" `Slow test_q_beats_random_at_equal_budget;
          Alcotest.test_case "incumbent is max of H" `Quick
            test_incumbent_tracks_max_of_history;
          Alcotest.test_case "failed compile cost" `Quick
            test_invalid_configs_charged_failed_compile;
          Alcotest.test_case "cold start" `Quick test_cold_start_option;
          Alcotest.test_case "empty init" `Quick test_driver_rejects_empty_init;
        ] );
      ( "commit_batch",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_commit_batch_matches_sequential;
          Alcotest.test_case "clock max over lanes" `Quick
            test_commit_batch_clock_max_over_lanes;
          Alcotest.test_case "duplicates hit cache" `Quick
            test_commit_batch_duplicates_hit_cache;
        ] );
      ( "evaluate_batch",
        [
          Alcotest.test_case "matches sequential driver" `Quick
            test_evaluate_batch_matches_sequential_driver;
          Alcotest.test_case "budget stop" `Quick test_evaluate_batch_budget_stop;
          Alcotest.test_case "recording dispatch" `Quick
            test_evaluate_batch_recording_dispatch;
        ] );
    ]
