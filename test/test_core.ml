let check_bool = Alcotest.(check bool)

let options = { Flextensor.default_options with n_trials = 15 }

let test_optimize_report_coherent () =
  let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
  let report = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  check_bool "perf valid" true report.perf.valid;
  check_bool "space size positive" true (report.space_size > 1.);
  check_bool "primitives non-empty" true (List.length report.primitives > 3);
  check_bool "config in space" true
    (Flextensor.Space.valid report.space report.config);
  check_bool "history recorded" true (List.length report.history > 5);
  check_bool "evals counted" true (report.n_evals > 5);
  check_bool "sim clock advanced" true (report.sim_time_s > 0.);
  Alcotest.(check int) "analysis sees one node" 1 report.analysis.num_nodes

let test_optimize_deterministic () =
  let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
  let a = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  let b = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  check_bool "same schedule" true (Flextensor.Config.equal a.config b.config)

let test_generated_code_mentions_target_binding () =
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i =
      i + n <= h && (String.equal (String.sub haystack i n) needle || go (i + 1))
    in
    go 0
  in
  let graph = Flextensor.Operators.gemm ~m:32 ~n:32 ~k:32 in
  let gpu = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  check_bool "gpu code has blockIdx" true
    (contains (Flextensor.generated_code gpu) "blockIdx");
  let cpu = Flextensor.optimize ~options graph Flextensor.Target.xeon_e5_2699_v4 in
  check_bool "cpu code has parallel" true
    (contains (Flextensor.generated_code cpu) "parallel")

let test_verify_through_api () =
  let graph = Flextensor.Operators.conv2d ~batch:1 ~in_channels:3 ~out_channels:4
      ~height:6 ~width:6 ~kernel:3 ~pad:1 () in
  let report = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  check_bool "verifies" true (Result.is_ok (Flextensor.verify report))

(* Every *registered* method must be runnable through [optimize] — the
   registry, not a hardcoded list, is the source of truth. *)
let test_all_search_methods_through_api () =
  let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
  List.iter
    (fun (m : Flextensor.Method.t) ->
      let report =
        Flextensor.optimize
          ~options:{ options with search = m.name } graph Flextensor.Target.v100
      in
      check_bool (m.name ^ " works") true report.perf.valid)
    (Flextensor.Method.list ())

let test_unknown_method_rejected () =
  let graph = Flextensor.Operators.gemm ~m:16 ~n:16 ~k:16 in
  check_bool "raises" true
    (try
       ignore
         (Flextensor.optimize
            ~options:{ options with search = "no-such-method" }
            graph Flextensor.Target.v100);
       false
     with Invalid_argument _ -> true)

let test_invalid_graph_rejected () =
  let node =
    {
      Flextensor.Op.tag = "bad";
      output = "O";
      spatial = [ Flextensor.Op.axis "i" 4 ];
      reduce = [];
      init = 0.;
      combine = Flextensor.Op.Acc_sum;
      body = Flextensor.Expr.Access ("missing", [ Flextensor.Expr.v "i" ]);
    }
  in
  let graph =
    { Flextensor.Op.graph_name = "bad"; inputs = []; ops = [ node ]; output = "O" }
  in
  check_bool "raises" true
    (try
       ignore (Flextensor.optimize ~options graph Flextensor.Target.v100);
       false
     with Invalid_argument _ -> true)

let test_max_evals_option () =
  let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
  let report =
    Flextensor.optimize
      ~options:{ options with n_trials = 10_000; max_evals = Some 25 }
      graph Flextensor.Target.v100
  in
  check_bool "budget respected (with walk slack)" true (report.n_evals <= 40)

let test_flops_scale_option () =
  let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
  let normal = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  let scaled =
    Flextensor.optimize ~options:{ options with flops_scale = 0.5 } graph
      Flextensor.Target.v100
  in
  check_bool "halved compute is at least as fast" true
    (scaled.perf.time_s <= normal.perf.time_s +. 1e-9)

let test_analysis_embedded_in_report () =
  let graph = Flextensor.Operators.conv2d ~batch:1 ~in_channels:3 ~out_channels:4
      ~height:6 ~width:6 ~kernel:3 ~pad:1 () in
  let report = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  Alcotest.(check int) "two nodes" 2 report.analysis.num_nodes;
  Alcotest.(check int) "conv reduce loops" 3 report.analysis.total_reduce

let test_restarts_never_worse () =
  let graph = Flextensor.Operators.conv2d ~batch:1 ~in_channels:16 ~out_channels:32
      ~height:14 ~width:14 ~kernel:3 ~stride:2 ~pad:1 () in
  let single = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  let multi =
    Flextensor.optimize ~options:{ options with restarts = 3 } graph
      Flextensor.Target.v100
  in
  check_bool "restarts never worse" true (multi.perf_value >= single.perf_value);
  check_bool "accounting summed" true (multi.n_evals > single.n_evals)

(* Restart merging must keep the history and the summed totals on one
   timeline: each restart's samples offset by the preceding restarts'
   clock and eval count, best-so-far monotone across the joins, and
   the curve's endpoint agreeing with the summed accounting (the old
   code kept only the best run's history, so [time_to_reach] compared
   per-run timestamps against a summed clock). *)
let test_restart_history_merged () =
  let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
  let multi =
    Flextensor.optimize ~options:{ options with restarts = 3 } graph
      Flextensor.Target.v100
  in
  check_bool "history non-empty" true (multi.history <> []);
  let rec monotone = function
    | (a : Flextensor.Driver.sample) :: (b : Flextensor.Driver.sample) :: rest ->
        a.at_s <= b.at_s && a.n_evals <= b.n_evals
        && a.best_value <= b.best_value
        && monotone (b :: rest)
    | _ -> true
  in
  check_bool "merged history monotone" true (monotone multi.history);
  let last = List.nth multi.history (List.length multi.history - 1) in
  Alcotest.(check int) "curve endpoint matches summed evals" multi.n_evals
    last.n_evals;
  check_bool "curve endpoint within summed clock" true
    (last.at_s <= multi.sim_time_s);
  check_bool "curve reaches the reported best" true
    (last.best_value = multi.perf_value);
  (* A single run is untouched by the merge. *)
  let single = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  let last1 = List.nth single.history (List.length single.history - 1) in
  Alcotest.(check int) "single-run endpoint evals" single.n_evals last1.n_evals

(* Measured mode never perturbs the search: a seeded [optimize] with a
   [measurer] attached returns bit-for-bit the schedule, value, eval
   count and history of the same run without one — measurement happens
   strictly after the search, on the winning config only.  qcheck
   varies the seed, the method and the operator. *)
let qcheck_measurer_invariance =
  QCheck.Test.make ~name:"measurer never perturbs seeded searches" ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun salt ->
      let rng = Ft_util.Rng.create salt in
      let pick l = List.nth l (Ft_util.Rng.int rng (List.length l)) in
      let graph =
        pick
          [
            Flextensor.Operators.gemm ~m:16 ~n:16 ~k:16;
            Flextensor.Operators.gemv ~m:32 ~k:32;
            Flextensor.Operators.conv1d ~batch:1 ~in_channels:4
              ~out_channels:4 ~length:16 ~kernel:3 ();
          ]
      in
      let target =
        pick
          Flextensor.Target.[ v100; xeon_e5_2699_v4; vu9p ]
      in
      let options =
        {
          Flextensor.default_options with
          seed = salt;
          n_trials = 5;
          max_evals = Some 40;
          search = pick [ "Q-method"; "random" ];
        }
      in
      let space = Flextensor.Space.make graph target in
      let measurer cfg = Flextensor.Measure.run ~warmup:0 ~reps:1 space cfg in
      let plain = Flextensor.optimize ~options graph target in
      let timed = Flextensor.optimize ~options ~measurer graph target in
      Flextensor.Config.equal plain.config timed.config
      && plain.perf_value = timed.perf_value
      && plain.n_evals = timed.n_evals
      && plain.history = timed.history
      && plain.measured = None
      && (match timed.measured with
         | Some m -> Flextensor.Perf.is_measured m
         | None -> not timed.perf.valid))

(* The [?dispatch] contract: an external backend changes only where
   the cost model runs.  This one evaluates on its own 2-lane pool, in
   reverse input order, and restores input order before returning; the
   seeded search must match the in-process one bit for bit. *)
let reversed_dispatch pool space : Flextensor.Evaluator.dispatch =
 fun keyed ->
  List.rev
    (Flextensor.Pool.map pool
       (fun (cfg, _) ->
         let perf = Ft_hw.Cost.evaluate space cfg in
         (Ft_hw.Cost.perf_value space perf, perf))
       (List.rev keyed))

let qcheck_dispatch_bit_for_bit =
  QCheck.Test.make ~name:"dispatch == in-process (Q/P-method)" ~count:3
    QCheck.(int_range 0 1000)
    (fun seed ->
      let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
      let target = Flextensor.Target.v100 in
      let space = Flextensor.Space.make graph target in
      let pool = Flextensor.Pool.create ~oversubscribe:true 2 in
      Fun.protect
        ~finally:(fun () -> Flextensor.Pool.shutdown pool)
        (fun () ->
          List.for_all
            (fun search ->
              let options =
                { Flextensor.default_options with n_trials = 8; seed; search }
              in
              let plain = Flextensor.optimize ~options graph target in
              let dispatched =
                Flextensor.optimize ~options
                  ~dispatch:(reversed_dispatch pool space) graph target
              in
              Flextensor.Config.equal plain.config dispatched.config
              && Int64.equal
                   (Int64.bits_of_float plain.perf_value)
                   (Int64.bits_of_float dispatched.perf_value)
              && Int64.equal
                   (Int64.bits_of_float plain.sim_time_s)
                   (Int64.bits_of_float dispatched.sim_time_s)
              && plain.n_evals = dispatched.n_evals)
            [ "Q-method"; "P-method" ]))

let test_summary_string () =
  let graph = Flextensor.Operators.gemm ~m:32 ~n:32 ~k:32 in
  let report = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  let summary = Flextensor.report_summary report in
  check_bool "mentions graph" true (String.length summary > 40)

let () =
  Alcotest.run "flextensor"
    [
      ( "public api",
        [
          Alcotest.test_case "report coherent" `Quick test_optimize_report_coherent;
          Alcotest.test_case "deterministic" `Quick test_optimize_deterministic;
          Alcotest.test_case "generated code" `Quick
            test_generated_code_mentions_target_binding;
          Alcotest.test_case "verify" `Quick test_verify_through_api;
          Alcotest.test_case "all methods" `Quick test_all_search_methods_through_api;
          Alcotest.test_case "unknown method" `Quick test_unknown_method_rejected;
          Alcotest.test_case "invalid graph" `Quick test_invalid_graph_rejected;
          Alcotest.test_case "max evals" `Quick test_max_evals_option;
          Alcotest.test_case "flops scale" `Quick test_flops_scale_option;
          Alcotest.test_case "embedded analysis" `Quick test_analysis_embedded_in_report;
          Alcotest.test_case "restarts" `Quick test_restarts_never_worse;
          Alcotest.test_case "restart history merge" `Quick
            test_restart_history_merged;
          QCheck_alcotest.to_alcotest qcheck_measurer_invariance;
          QCheck_alcotest.to_alcotest qcheck_dispatch_bit_for_bit;
          Alcotest.test_case "summary" `Quick test_summary_string;
        ] );
    ]
