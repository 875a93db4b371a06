open Ft_schedule

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Shared pools so the suite spawns domains once, not per test case. *)
let pool1 = Ft_par.Pool.create ~oversubscribe:true 1
let pool2 = Ft_par.Pool.create ~oversubscribe:true 2
let pool4 = Ft_par.Pool.create ~oversubscribe:true 4
let pool8 = Ft_par.Pool.create ~oversubscribe:true 8
let pools = [ pool1; pool2; pool4; pool8 ]

let gemm_space () = Space.make (Ft_ir.Operators.gemm ~m:64 ~n:64 ~k:64) Target.v100

(* -- Pool ----------------------------------------------------------- *)

let test_map_ordering () =
  let xs = List.init 257 Fun.id in
  let expected = List.map (fun x -> (x * x) + 1 ) xs in
  List.iter
    (fun pool ->
      Alcotest.(check (list int))
        (Printf.sprintf "ordered at %d lanes" (Ft_par.Pool.lanes pool))
        expected
        (Ft_par.Pool.map pool (fun x -> (x * x) + 1) xs))
    pools

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Ft_par.Pool.map pool4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Ft_par.Pool.map pool4 succ [ 7 ])

(* Lane clamping: without [~oversubscribe] a pool never runs more
   domains than the machine has cores; with it, the request wins. *)
let test_lanes_clamped_to_cores () =
  let cores = max 1 (Domain.recommended_domain_count ()) in
  let big = Ft_par.Pool.create (cores + 7) in
  check_int "clamped" cores (Ft_par.Pool.lanes big);
  Ft_par.Pool.shutdown big;
  check_int "oversubscribed pool keeps its lanes" 8 (Ft_par.Pool.lanes pool8)

exception Boom of int

let test_map_exception_propagation () =
  List.iter
    (fun pool ->
      (match Ft_par.Pool.map pool (fun x -> if x mod 10 = 3 then raise (Boom x) else x)
               (List.init 50 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
          (* The smallest failing index wins, for any lane count. *)
          check_int "first failure" 3 x);
      (* the pool survives a raising map *)
      check_int "pool still works" 10
        (List.length (Ft_par.Pool.map pool succ (List.init 10 Fun.id))))
    pools

let test_try_map_captures_per_task () =
  let results =
    Ft_par.Pool.try_map pool4
      (fun x -> if x = 2 then raise (Boom x) else x * 10)
      [ 0; 1; 2; 3 ]
  in
  (* Each failure keeps its backtrace alongside the exception, so a
     lane failure stays debuggable. *)
  (match results with
  | [ Ok 0; Ok 10; Error (Boom 2, bt); Ok 30 ] ->
      check_bool "backtrace is the raise site's" true
        (Printexc.raw_backtrace_to_string bt
        |> String.length >= 0)
  | _ -> Alcotest.fail "expected [Ok 0; Ok 10; Error (Boom 2, _); Ok 30]")

let test_map_seeded_independent_of_lanes () =
  let xs = List.init 100 Fun.id in
  let run pool =
    Ft_par.Pool.map_seeded pool ~seed:11
      (fun rng x -> (x, Ft_util.Rng.int rng 1_000_000))
      xs
  in
  let reference = run pool1 in
  List.iter
    (fun pool ->
      check_bool
        (Printf.sprintf "same draws at %d lanes" (Ft_par.Pool.lanes pool))
        true
        (run pool = reference))
    pools

let test_rng_streams () =
  let a = Ft_util.Rng.stream 42 0 in
  let a' = Ft_util.Rng.stream 42 0 in
  let b = Ft_util.Rng.stream 42 1 in
  Alcotest.(check int64) "stream is a pure function"
    (Ft_util.Rng.next_int64 a) (Ft_util.Rng.next_int64 a');
  check_bool "streams differ" true
    (Ft_util.Rng.next_int64 a <> Ft_util.Rng.next_int64 b);
  Alcotest.check_raises "negative stream index"
    (Invalid_argument "Rng.mix: stream index must be >= 0") (fun () ->
      ignore (Ft_util.Rng.mix 42 (-1)))

(* -- Evaluator.measure_batch ---------------------------------------- *)

let distinct_configs space n =
  let rng = Ft_util.Rng.create 5 in
  let seen = Hashtbl.create n in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let cfg = Space.random_config rng space in
      let key = Config.key cfg in
      if Hashtbl.mem seen key then go acc k
      else begin
        Hashtbl.add seen key ();
        go (cfg :: acc) (k - 1)
      end
  in
  go [] n

let test_measure_batch_matches_sequential () =
  let space = gemm_space () in
  let cfgs = distinct_configs space 40 in
  let seq = Ft_explore.Evaluator.create ~pool:pool1 space in
  let seq_values = List.map (fun cfg -> (cfg, Ft_explore.Evaluator.measure seq cfg)) cfgs in
  List.iter
    (fun pool ->
      let batched = Ft_explore.Evaluator.create ~pool space in
      let values = Ft_explore.Evaluator.measure_batch batched cfgs in
      check_bool "same values" true
        (List.for_all2
           (fun (_, a) (_, b) -> Float.equal a b)
           seq_values values);
      check_int "same eval count"
        (Ft_explore.Evaluator.n_evals seq)
        (Ft_explore.Evaluator.n_evals batched);
      Alcotest.(check (float 1e-9)) "same clock at n_parallel=1"
        (Ft_explore.Evaluator.clock seq)
        (Ft_explore.Evaluator.clock batched))
    pools

let test_measure_batch_clock_max_over_lanes () =
  let space = gemm_space () in
  let cfgs = distinct_configs space 12 in
  (* Model_query charges a constant per fresh point, so n_parallel = k
     must shrink the batched clock by exactly k (12 waves of 1 vs 3
     waves of 4, max = the constant either way). *)
  let clock_at n_parallel =
    let evaluator =
      Ft_explore.Evaluator.create ~mode:Ft_explore.Evaluator.Model_query
        ~n_parallel ~pool:pool4 space
    in
    ignore (Ft_explore.Evaluator.measure_batch evaluator cfgs);
    Ft_explore.Evaluator.clock evaluator
  in
  Alcotest.(check (float 1e-12)) "4 lanes = 1/4 clock"
    (clock_at 1 /. 4.) (clock_at 4);
  (* A partial final wave still charges: 12 points at n_parallel = 8
     is ceil(12/8) = 2 waves. *)
  Alcotest.(check (float 1e-12)) "partial wave charged"
    (clock_at 1 /. 6.) (clock_at 8)

let test_measure_batch_duplicates_hit_cache () =
  let space = gemm_space () in
  let cfg = Space.default_config space in
  let evaluator = Ft_explore.Evaluator.create ~pool:pool4 space in
  let results = Ft_explore.Evaluator.measure_batch evaluator [ cfg; cfg; cfg ] in
  check_int "one distinct eval" 1 (Ft_explore.Evaluator.n_evals evaluator);
  check_int "every input answered" 3 (List.length results);
  let values = List.map snd results in
  check_bool "same value for duplicates" true
    (List.for_all (Float.equal (List.hd values)) values)

(* -- Driver.evaluate_batch ------------------------------------------ *)

let driver_fingerprint (state : Ft_explore.Driver.state) =
  ( List.map (fun (cfg, v) -> (Config.key cfg, v)) state.evaluated,
    (Config.key (fst state.best), snd state.best),
    List.map
      (fun (s : Ft_explore.Driver.sample) -> (s.at_s, s.n_evals, s.best_value))
      state.samples )

let test_evaluate_batch_matches_sequential_driver () =
  let space = gemm_space () in
  let cfgs = distinct_configs space 30 in
  let with_dups = cfgs @ List.filteri (fun i _ -> i mod 3 = 0) cfgs in
  let seed_cfg = Space.default_config space in
  let seq_state =
    Ft_explore.Driver.init (Ft_explore.Evaluator.create ~pool:pool1 space) [ seed_cfg ]
  in
  List.iter
    (fun cfg ->
      if not (Ft_explore.Driver.seen seq_state cfg) then
        ignore (Ft_explore.Driver.evaluate seq_state cfg))
    with_dups;
  let batch_state =
    Ft_explore.Driver.init (Ft_explore.Evaluator.create ~pool:pool4 space) [ seed_cfg ]
  in
  ignore (Ft_explore.Driver.evaluate_batch batch_state with_dups);
  check_bool "identical driver state" true
    (driver_fingerprint seq_state = driver_fingerprint batch_state)

let test_evaluate_batch_budget_stop () =
  let space = gemm_space () in
  let cfgs = distinct_configs space 20 in
  let evaluator = Ft_explore.Evaluator.create ~pool:pool4 space in
  let state = Ft_explore.Driver.init evaluator [ Space.default_config space ] in
  let committed =
    Ft_explore.Driver.evaluate_batch
      ~should_stop:(fun () -> Ft_explore.Evaluator.n_evals evaluator >= 8)
      state cfgs
  in
  check_int "stopped at the budget" 8 (Ft_explore.Evaluator.n_evals evaluator);
  check_int "committed up to the budget" 7 (List.length committed)

(* -- search determinism across pool sizes --------------------------- *)

let result_fingerprint (r : Ft_explore.Driver.result) =
  ( Config.key r.best_config,
    r.best_value,
    r.n_evals,
    r.sim_time_s,
    List.map
      (fun (s : Ft_explore.Driver.sample) -> (s.at_s, s.n_evals, s.best_value))
      r.history )

(* Every *registered* method must be pool-size-invariant — the suite
   iterates the registry, so a newly registered method is covered with
   no edit here.  Small per-method trial budgets keep the runtime
   bounded; the eval cap is the real limiter. *)
let () = Ft_baselines.Autotvm.ensure_registered ()

let searches =
  List.map
    (fun (m : Ft_explore.Method.t) ->
      ( m.name,
        fun ~seed ~pool space ->
          m.search
            {
              Ft_explore.Search_loop.default_params with
              seed;
              n_trials = 6;
              max_evals = Some 80;
              pool = Some pool;
            }
            space ))
    (Ft_explore.Method.list ())

let test_search_determinism_across_jobs =
  let space = gemm_space () in
  QCheck.Test.make ~count:8 ~name:"search results independent of -j"
    QCheck.(pair (int_bound 9999) (int_bound (List.length searches - 1)))
    (fun (seed, which) ->
      let name, search = List.nth searches which in
      let reference = result_fingerprint (search ~seed ~pool:pool1 space) in
      List.for_all
        (fun pool ->
          let got = result_fingerprint (search ~seed ~pool space) in
          if got <> reference then
            QCheck.Test.fail_reportf "%s diverged at %d lanes (seed %d)" name
              (Ft_par.Pool.lanes pool) seed
          else true)
        [ pool2; pool4; pool8 ])

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "ft_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "map edge cases" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "lanes clamped to cores" `Quick
            test_lanes_clamped_to_cores;
          Alcotest.test_case "exception propagation" `Quick
            test_map_exception_propagation;
          Alcotest.test_case "try_map" `Quick test_try_map_captures_per_task;
          Alcotest.test_case "seeded map lane-independent" `Quick
            test_map_seeded_independent_of_lanes;
          Alcotest.test_case "rng streams" `Quick test_rng_streams;
        ] );
      ( "measure_batch",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_measure_batch_matches_sequential;
          Alcotest.test_case "clock max over lanes" `Quick
            test_measure_batch_clock_max_over_lanes;
          Alcotest.test_case "duplicates hit cache" `Quick
            test_measure_batch_duplicates_hit_cache;
        ] );
      ( "evaluate_batch",
        [
          Alcotest.test_case "matches sequential driver" `Quick
            test_evaluate_batch_matches_sequential_driver;
          Alcotest.test_case "budget stop" `Quick test_evaluate_batch_budget_stop;
        ] );
      ( "determinism",
        [ qcheck test_search_determinism_across_jobs ] );
    ]
