open Ft_schedule

let check_bool = Alcotest.(check bool)
let params = Ft_explore.Search_loop.default_params
let search name = (Ft_explore.Method.find_exn name).search

(* [params.n_trials] random draws, without the table row's budget. *)
let random_search =
  Ft_explore.Search_loop.run ~method_name:"random" Ft_explore.Random_method.policy

let gemm_space ?(target = Target.v100) () =
  Space.make (Ft_ir.Operators.gemm ~m:256 ~n:256 ~k:256) target

(* A search state whose H is [cfgs], committed by [Driver.init]. *)
let init ?n_parallel ?dispatch ?max_evals space cfgs =
  Ft_explore.Driver.init ?n_parallel ?dispatch ?max_evals
    (Ft_explore.Evaluator.create space) cfgs

(* H is owned by the driver: seeding a point twice is a hit, and a
   point in H is never evaluated again. *)
let test_evaluator_caching () =
  let space = gemm_space () in
  let cfg = Space.default_config space in
  let once = init space [ cfg ] in
  let state = init space [ cfg; cfg ] in
  Alcotest.(check (float 1e-9)) "cached value" (snd once.best)
    (Ft_anneal.Sa.value state.pool 1);
  Alcotest.(check int) "one distinct eval" 1 (Ft_explore.Driver.n_evals state);
  check_bool "cache hit is much cheaper" true
    (Ft_explore.Driver.clock state -. Ft_explore.Driver.clock once < 0.01);
  Alcotest.(check int) "a point in H commits nothing" 0
    (Ft_explore.Driver.evaluate_batch state [ cfg ])

(* Simulated seconds charged for one fresh point of [target]'s space. *)
let first_point_clock target =
  let space = gemm_space ~target () in
  Ft_explore.Driver.clock (init space [ Space.default_config space ])

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
    search "Q-method"
      { params with seed = 1; n_trials = 20 } space
  in
  let b =
    search "Q-method"
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
    search "P-method"
      { params with seed = 1; n_trials = 5 } space
  in
  check_bool "found something" true (result.best_value > 0.);
  check_bool "history monotone" true (history_nondecreasing result)

let test_random_method_runs () =
  let space = gemm_space () in
  let result =
    random_search
      { params with seed = 1; n_trials = 50 } space
  in
  check_bool "found something" true (result.best_value > 0.)

let test_max_evals_budget () =
  let space = gemm_space () in
  let result =
    search "Q-method"
      { params with seed = 1; n_trials = 1000; max_evals = Some 30 } space
  in
  check_bool "stopped at budget" true (result.n_evals <= 40)

let test_q_beats_random_at_equal_budget () =
  let space = gemm_space () in
  let q =
    search "Q-method"
      { params with seed = 3; n_trials = 1000; max_evals = Some 150 } space
  in
  let r =
    random_search
      { params with seed = 3; n_trials = 1000; max_evals = Some 150 } space
  in
  check_bool "guided beats random" true (q.best_value > r.best_value)

let test_invalid_configs_charged_failed_compile () =
  let space = gemm_space () in
  let cfg = Space.default_config space in
  cfg.spatial.(0).(0) <- 7 (* outside the space *);
  let state = init space [ cfg ] in
  Alcotest.(check (float 0.)) "zero value" 0. (snd state.best);
  let clock = Ft_explore.Driver.clock state in
  check_bool "cheap failure" true (clock < 0.3)

let test_cold_start_option () =
  let space = gemm_space () in
  let warm =
    search "Q-method"
      { params with seed = 4; n_trials = 5 } space
  in
  let cold =
    search "Q-method"
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
  let result = Ft_explore.Driver.finish state in
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

(* Regression: [finish] used to call [Evaluator.perf_of] while
   assembling the result record, charging a reporting-time cache hit
   whose inclusion in [sim_time_s] depended on unspecified record
   evaluation order.  The report must equal the pre-finish clock
   exactly, and finishing must not move the evaluator's clock. *)
let test_finish_leaves_clock_untouched () =
  let space = gemm_space () in
  let state = init space [ Space.default_config space ] in
  let rng = Ft_util.Rng.create 7 in
  for _ = 1 to 5 do
    ignore (Ft_explore.Driver.evaluate_batch state [ Space.random_config rng space ])
  done;
  let clock = Ft_explore.Driver.clock state in
  let n = Ft_explore.Driver.n_evals state in
  let result = Ft_explore.Driver.finish state in
  Alcotest.(check (float 0.)) "report equals pre-finish clock" clock
    result.sim_time_s;
  Alcotest.(check int) "report equals pre-finish count" n result.n_evals;
  Alcotest.(check (float 0.)) "finish did not charge" clock
    (Ft_explore.Driver.clock state);
  Alcotest.(check int) "finish did not count" n
    (Ft_explore.Driver.n_evals state)

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
  let clock = Ft_explore.Driver.clock state in
  let n = Ft_explore.Driver.n_evals state in
  let result = Ft_explore.Driver.finish state in
  Alcotest.(check (float 0.)) "report clock is the snapshot" clock
    result.sim_time_s;
  Alcotest.(check int) "report count is the snapshot" n result.n_evals

(* -- batched evaluation --------------------------------------------

   Both groups drive the driver's one commit loop: "commit_batch"
   through [Driver.init] and one-point batches, "evaluate_batch"
   through candidate lists. *)

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

let driver_fingerprint (state : Ft_explore.Driver.state) =
  ( List.map
      (fun (cfg, v) -> (Config.compute_key cfg, v))
      (Ft_anneal.Sa.to_list state.pool),
    (Config.compute_key (fst state.best), snd state.best),
    List.map
      (fun (s : Ft_explore.Driver.sample) -> (s.at_s, s.n_evals, s.best_value))
      state.samples )

(* One batch of distinct configs commits what one-point batches of the
   same configs commit, and at [n_parallel = 1] charges the same
   clock. *)
let test_commit_batch_matches_sequential () =
  let space = small_gemm_space () in
  let cfgs = distinct_configs space 40 in
  let seed_cfg = Space.default_config space in
  let seq = init space [ seed_cfg ] in
  List.iter (fun cfg -> ignore (Ft_explore.Driver.evaluate_batch seq [ cfg ])) cfgs;
  let batched = init space [ seed_cfg ] in
  ignore (Ft_explore.Driver.evaluate_batch batched cfgs);
  check_bool "same values" true (driver_fingerprint seq = driver_fingerprint batched);
  Alcotest.(check int) "same eval count"
    (Ft_explore.Driver.n_evals seq)
    (Ft_explore.Driver.n_evals batched);
  Alcotest.(check (float 0.)) "same clock at n_parallel=1"
    (Ft_explore.Driver.clock seq)
    (Ft_explore.Driver.clock batched)

let test_commit_batch_clock_max_over_lanes () =
  let space = small_gemm_space ~target:Target.vu9p () in
  let cfgs = distinct_configs space 12 in
  (* An FPGA model query charges a constant per fresh point, so
     n_parallel = k must shrink the batched clock by exactly k (12
     waves of 1 vs 3 waves of 4, max = the constant either way). *)
  let clock_at n_parallel = Ft_explore.Driver.clock (init ~n_parallel space cfgs) in
  Alcotest.(check (float 1e-12)) "4 lanes = 1/4 clock"
    (clock_at 1 /. 4.) (clock_at 4);
  (* A partial final wave still charges: 12 points at n_parallel = 8
     is ceil(12/8) = 2 waves. *)
  Alcotest.(check (float 1e-12)) "partial wave charged"
    (clock_at 1 /. 6.) (clock_at 8)

let test_commit_batch_duplicates_hit_cache () =
  let space = small_gemm_space () in
  let cfg = Space.default_config space in
  let state = init space [ cfg; cfg; cfg ] in
  let results = Ft_anneal.Sa.to_list state.pool in
  Alcotest.(check int) "one distinct eval" 1 (Ft_explore.Driver.n_evals state);
  Alcotest.(check int) "every input answered" 3 (List.length results);
  let values = List.map snd results in
  check_bool "same value for duplicates" true
    (List.for_all (Float.equal (List.hd values)) values)

let test_evaluate_batch_matches_sequential_driver () =
  let space = small_gemm_space () in
  let cfgs = distinct_configs space 30 in
  let with_dups = cfgs @ List.filteri (fun i _ -> i mod 3 = 0) cfgs in
  let seed_cfg = Space.default_config space in
  let seq_state = init space [ seed_cfg ] in
  List.iter
    (fun cfg -> ignore (Ft_explore.Driver.evaluate_batch seq_state [ cfg ]))
    with_dups;
  let batch_state = init space [ seed_cfg ] in
  ignore (Ft_explore.Driver.evaluate_batch batch_state with_dups);
  check_bool "identical driver state" true
    (driver_fingerprint seq_state = driver_fingerprint batch_state)

let test_evaluate_batch_budget_stop () =
  let space = small_gemm_space () in
  let cfgs = distinct_configs space 20 in
  let state = init ~max_evals:8 space [ Space.default_config space ] in
  let committed = Ft_explore.Driver.evaluate_batch state cfgs in
  Alcotest.(check int) "stopped at the budget" 8 (Ft_explore.Driver.n_evals state);
  Alcotest.(check int) "committed up to the budget" 7 committed

(* A seeded neighbourhood walk of [n] distinct points: each a random
   neighbour of a random earlier one, so the points share factor arrays
   as a search's points do. *)
let neighbourhood_walk space n =
  let rng = Ft_util.Rng.create 5 in
  let seen = Config.Tbl.create n in
  let points = Array.make n (Space.default_config space) in
  Config.Tbl.add seen points.(0) ();
  let k = ref 1 in
  while !k < n do
    match Neighborhood.neighbors space points.(Ft_util.Rng.int rng !k) with
    | [] -> ()
    | moves ->
        let _, cfg = Ft_util.Rng.choose rng moves in
        if not (Config.Tbl.mem seen cfg) then begin
          Config.Tbl.add seen cfg ();
          points.(!k) <- cfg;
          incr k
        end
  done;
  Array.to_list points

(* H is held once: the search state of 5,000 evaluations stays under
   350 bytes per evaluation (a word count, independent of the host),
   where keeping every point in an evaluator cache and a visited set
   as well took ~540.  [seen] holds exactly for the configs of the
   pool. *)
let test_state_bytes_per_eval () =
  let space =
    Space.make
      (Result.get_ok
         (Ft_workloads.Catalog.graph_of ~op:"conv2d" ~dims:[ 1; 64; 56; 56; 64; 3; 3 ]))
      (Result.get_ok (Ft_workloads.Catalog.target_of "xeon"))
  in
  let cfgs = neighbourhood_walk space 5000 in
  let state = init space [ List.hd cfgs ] in
  ignore (Ft_explore.Driver.evaluate_batch state (List.tl cfgs));
  let n = Ft_explore.Driver.n_evals state in
  Alcotest.(check int) "every point evaluated" 5000 n;
  let bytes = Obj.reachable_words (Obj.repr state) * (Sys.word_size / 8) in
  let per_eval = float_of_int bytes /. float_of_int n in
  if per_eval >= 350. then
    Alcotest.failf "%.1f bytes of search state per evaluation (bound 350)" per_eval;
  let pool = List.map fst (Ft_anneal.Sa.to_list state.pool) in
  check_bool "every pool config is seen" true
    (List.for_all (Ft_explore.Driver.seen state) pool);
  Alcotest.(check int) "seen holds for the pool's configs only"
    (List.length (List.sort_uniq compare (List.map Config.compute_key pool)))
    (Config.Tbl.length state.index)

(* A dispatch that records its inputs sees each batch's fresh configs
   exactly once, in first-occurrence order: never a config in H
   (measured or absorbed) or an in-batch duplicate, and no call for a
   batch with nothing fresh.  The run equals a dispatch-free one bit for bit. *)
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
  let run dispatch =
    let state = init ?dispatch space [ seed_cfg ] in
    let r1 = Ft_explore.Driver.evaluate_batch state (a @ [ nth 0; nth 4; nth 9 ]) in
    (* In H without a measurement: absorbed from outside. *)
    ignore (Ft_explore.Driver.absorb state x1 0.);
    ignore (Ft_explore.Driver.absorb state x2 0.);
    let r2 =
      Ft_explore.Driver.evaluate_batch state [ nth 0; x1; b0; b1; b0; x2; b2; nth 1; b1 ]
    in
    let r3 = Ft_explore.Driver.evaluate_batch state a in
    ([ r1; r2; r3 ], driver_fingerprint state, Ft_explore.Driver.clock state)
  in
  let dispatched = run (Some dispatch) in
  let local = run None in
  check_bool "dispatch inputs" true
    (List.rev !calls = [ [ seed_cfg ]; a; [ b0; b1; b2 ] ]);
  let results (r, _, _) = r in
  Alcotest.(check (list int)) "committed counts" [ 10; 3; 0 ] (results dispatched);
  check_bool "same results" true (results dispatched = results local);
  let (_, fp_d, clock_d), (_, fp_l, clock_l) = (dispatched, local) in
  check_bool "same driver state" true (fp_d = fp_l);
  check_bool "same clock" true (Int64.bits_of_float clock_d = Int64.bits_of_float clock_l)

(* The commit loop against a reference written from its rules: init
   commits every input, a point already in H as a hit charged at once
   at its first value; evaluate_batch commits the first occurrences of
   points not in H, in input order, until [max_evals] points are
   evaluated.  Fresh points are charged in waves of [n_parallel], max
   cost over the wave, a partial wave when the loop returns; every push
   records (clock, count, best).  A recording dispatch sees each fresh
   point once. *)
type reference = {
  mutable h : (string * float) list;  (* newest first *)
  mutable clock : float;
  mutable n : int;
  mutable best : float;
  mutable history : (float * int * float) list;  (* newest first *)
}

let reference_loop r ~lanes ~seeding ~cap ~price cfgs =
  let push key v =
    r.h <- (key, v) :: r.h;
    r.best <- Float.max r.best v;
    r.history <- (r.clock, r.n, r.best) :: r.history
  in
  let wave = ref [] in
  let flush () =
    if !wave <> [] then r.clock <- r.clock +. List.fold_left Float.max 0. !wave;
    wave := []
  in
  let fresh =
    List.filter
      (fun cfg ->
        let key = Config.compute_key cfg in
        if (not seeding) && r.n >= cap then false
        else
          match List.assoc_opt key (List.rev r.h) with
          | Some v ->
              if seeding then begin
                r.clock <- r.clock +. 0.0005;
                push key v
              end;
              false
          | None ->
              let v, cost = price cfg in
              r.n <- r.n + 1;
              wave := cost :: !wave;
              if List.length !wave >= lanes then flush ();
              push key v;
              true)
      cfgs
  in
  flush ();
  fresh

let test_commit_loop_reference =
  let space = small_gemm_space () in
  let pool = Array.of_list (distinct_configs space 6) in
  let evaluator = Ft_explore.Evaluator.create space in
  let price cfg =
    let (v, _), cost =
      Ft_explore.Evaluator.price evaluator ~lane_dead:ignore cfg
        (Ft_explore.Evaluator.compute evaluator cfg)
    in
    (v, cost)
  in
  QCheck.Test.make ~count:300 ~name:"commit loop matches its reference"
    QCheck.(int_bound 999_999)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let draw k = List.init k (fun _ -> pool.(Ft_util.Rng.int rng (Array.length pool))) in
      let initial = draw (1 + Ft_util.Rng.int rng 4) in
      let absorbed = draw (Ft_util.Rng.int rng 3) in
      let batch = draw (Ft_util.Rng.int rng 13) in
      let n_parallel = 1 + Ft_util.Rng.int rng 4 in
      let max_evals =
        if Ft_util.Rng.bool rng then Some (Ft_util.Rng.int rng 8) else None
      in
      let calls = ref [] in
      let dispatch pairs =
        calls := List.rev_append (List.map fst pairs) !calls;
        List.map (fun (cfg, _) -> Ft_explore.Evaluator.compute evaluator cfg) pairs
      in
      let dispatch = if Ft_util.Rng.bool rng then Some dispatch else None in
      let state = init ~n_parallel ?dispatch ?max_evals space initial in
      let r = { h = []; clock = 0.; n = 0; best = neg_infinity; history = [] } in
      let ref_loop = reference_loop r ~lanes:n_parallel ~price in
      let fresh_init = ref_loop ~seeding:true ~cap:max_int initial in
      List.iteri
        (fun i cfg ->
          let v = float_of_int (i + 1) *. 1e4 in
          Ft_explore.Driver.absorb state cfg v;
          r.h <- (Config.compute_key cfg, v) :: r.h;
          r.best <- Float.max r.best v;
          r.history <- (r.clock, r.n, r.best) :: r.history)
        absorbed;
      let committed = Ft_explore.Driver.evaluate_batch state batch in
      let cap = Option.value max_evals ~default:max_int in
      let fresh_batch = ref_loop ~seeding:false ~cap batch in
      let bits = Int64.bits_of_float in
      let ok =
        committed = List.length fresh_batch
        && List.map (fun (cfg, v) -> (Config.compute_key cfg, bits v))
             (Ft_anneal.Sa.to_list state.pool)
           = List.map (fun (k, v) -> (k, bits v)) r.h
        && Ft_explore.Driver.n_evals state = r.n
        && bits (Ft_explore.Driver.clock state) = bits r.clock
        && List.map
             (fun (s : Ft_explore.Driver.sample) ->
               (bits s.at_s, s.n_evals, bits s.best_value))
             state.samples
           = List.map (fun (c, n, b) -> (bits c, n, bits b)) r.history
        && (dispatch = None
           || List.map Config.compute_key (List.rev !calls)
              = List.map Config.compute_key (fresh_init @ fresh_batch))
      in
      if not ok then
        QCheck.Test.fail_reportf "seed %d: commit loop differs from its reference" seed;
      true)


(* -- templates: searches inside a restricted space ------------------- *)

let all_targets = Target.[ v100; xeon_e5_2699_v4; vu9p ]

(* A template's points by the definition of its decisions, written
   without [Space.valid]'s domain checks: [full] is the unrestricted
   space the template narrows. *)
let in_template kind (full : Space.t) (cfg : Config.t) =
  let snap extent targets =
    List.sort_uniq compare (List.map (Heuristics.closest_divisor extent) targets)
  in
  let reduce_ok inner = Array.for_all2 (fun extent (parts : int array) ->
      parts.(1) = 1 && List.mem parts.(2) (inner extent)) full.reduce_extents cfg.reduce
  in
  let pinned =
    cfg.order_id = 0 && cfg.fuse_levels = 1 && cfg.inline && cfg.partition_id = 0
    && cfg.vectorize = (match full.target with Target.Cpu _ -> true | _ -> false)
  in
  Space.valid full cfg && pinned
  &&
  match kind with
  | `Divisor -> reduce_ok Ft_util.Mathx.divisors && (cfg.unroll_id = 0 || cfg.unroll_id = 2)
  | `Paper_era ->
      Array.for_all2
        (fun extent (parts : int array) ->
          parts.(1) = 1
          && List.mem parts.(2) (snap extent [ 1; 4; 8; 16; 32 ])
          && List.mem parts.(3) (snap extent [ 1; 2; 4 ]))
        full.spatial_extents cfg.spatial
      && reduce_ok (fun extent -> snap extent [ 1; 4; 8; 16 ])
      && cfg.unroll_id = 1

let gen_template_case =
  QCheck.(
    quad (int_bound 999_999)
      (oneofl [ `Divisor; `Paper_era ])
      (oneofl all_targets)
      (oneofl Tiny.cases))

let print_kind = function `Divisor -> "Divisor" | `Paper_era -> "Paper_era"

(* Membership in a template space is the template's definition: over
   the template's own random points, their full-space neighbours (one
   decision off) and full-space random and heuristic points. *)
let qcheck_template_valid_is_definition =
  QCheck.Test.make ~count:60 ~name:"template valid == template definition"
    gen_template_case (fun (seed, kind, target, (case : Ft_workloads.Suites.case)) ->
      let rng = Ft_util.Rng.create seed in
      let full = Space.make case.graph target in
      let tmpl = Ft_explore.Autotvm.template kind full in
      let inside = List.init 10 (fun _ -> Space.random_config rng tmpl) in
      let candidates =
        inside
        @ List.concat_map (fun cfg -> List.map snd (Neighborhood.neighbors full cfg)) inside
        @ List.init 10 (fun _ -> Space.random_config rng full)
        @ Heuristics.seed_configs full
      in
      List.iter
        (fun cfg ->
          if Space.valid tmpl cfg <> in_template kind full cfg then
            QCheck.Test.fail_reportf "%s %s: valid=%b for %s" case.case_name
              (print_kind kind) (Space.valid tmpl cfg) (Config.compute_key cfg))
        candidates;
      List.for_all (in_template kind full) inside)

(* Every move from a template point, along the template's directions
   and the full space's, lands inside the template or nowhere. *)
let qcheck_apply_stays_in_template =
  QCheck.Test.make ~count:60 ~name:"apply stays in a template space"
    gen_template_case (fun (seed, kind, target, (case : Ft_workloads.Suites.case)) ->
      let rng = Ft_util.Rng.create seed in
      let full = Space.make case.graph target in
      let tmpl = Ft_explore.Autotvm.template kind full in
      let moves = Neighborhood.directions tmpl @ Neighborhood.directions full in
      List.for_all
        (fun _ ->
          let cfg = Space.random_config rng tmpl in
          List.for_all
            (fun move ->
              match Neighborhood.apply tmpl cfg move with
              | None -> true
              | Some next -> Space.valid tmpl next && in_template kind full next)
            moves)
        (List.init 5 Fun.id))

(* [search] over [space] with a dispatch that records every fresh
   point committed to H. *)
let recorded_search search params (space : Space.t) =
  let committed = ref [] in
  let dispatch pairs =
    List.map
      (fun (cfg, _) ->
        committed := cfg :: !committed;
        let perf = Ft_hw.Cost.evaluate space cfg in
        (Ft_hw.Cost.perf_value space perf, perf))
      pairs
  in
  let result = search { params with Ft_explore.Search_loop.dispatch = Some dispatch } space in
  (result, List.rev !committed)

(* The Q-, P-, CD- and random methods run inside either template: every
   point they commit to H, the winner included, is in the template
   (the heuristic seeds outside it are dropped). *)
let qcheck_methods_stay_in_template =
  QCheck.Test.make ~count:12 ~name:"methods stay inside a template space"
    QCheck.(
      quad (int_bound 999_999)
        (oneofl [ `Divisor; `Paper_era ])
        (oneofl all_targets)
        (oneofl [ ("Q-method", 2); ("P-method", 2); ("CD-method", 3); ("random", 10) ]))
    (fun (seed, kind, target, (name, n_trials)) ->
      let full = Space.make (Ft_ir.Operators.gemm ~m:16 ~n:32 ~k:24) target in
      let tmpl = Ft_explore.Autotvm.template kind full in
      let result, committed =
        recorded_search (search name) { params with seed; n_trials; max_evals = Some 40 } tmpl
      in
      committed <> []
      && List.for_all (fun cfg -> Space.valid tmpl cfg && in_template kind full cfg) committed
      && Space.valid tmpl result.best_config)

(* AutoTVM's search is a strategy over any space: on the full space it
   commits only valid points, some outside both templates, and returns
   a valid winner. *)
let qcheck_autotvm_on_full_space =
  QCheck.Test.make ~count:3 ~name:"autotvm policy on the full space"
    QCheck.(pair (int_bound 999_999) (oneofl all_targets))
    (fun (seed, target) ->
      let full = Space.make (Ft_ir.Operators.gemm ~m:16 ~n:32 ~k:24) target in
      let result, committed =
        recorded_search
          (Ft_explore.Search_loop.run ~method_name:"autotvm-full" Ft_explore.Autotvm.policy)
          { params with seed; n_trials = 2 }
          full
      in
      List.for_all (Space.valid full) committed
      && List.exists
           (fun cfg ->
             not (in_template `Divisor full cfg || in_template `Paper_era full cfg))
           committed
      && Space.valid full result.best_config
      && result.best_value > 0.)

let () =
  Alcotest.run "ft_explore"
    [
      ( "evaluator",
        [
          Alcotest.test_case "caching" `Quick test_evaluator_caching;
          Alcotest.test_case "hardware cost" `Quick test_evaluator_charges_hardware_cost;
          Alcotest.test_case "model cost" `Quick test_evaluator_model_mode_cheap;
          Alcotest.test_case "mode defaults" `Quick test_fpga_defaults_to_model;
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
          Alcotest.test_case "state bytes per eval" `Quick test_state_bytes_per_eval;
          QCheck_alcotest.to_alcotest test_commit_loop_reference;
        ] );
      ( "templates",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_template_valid_is_definition;
            qcheck_apply_stays_in_template;
            qcheck_methods_stay_in_template;
            qcheck_autotvm_on_full_space;
          ] );
    ]
