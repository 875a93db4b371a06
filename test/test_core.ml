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

(* Every method of the table must be runnable through [optimize] — the
   table, not a list in this test, is the source of truth. *)
let test_all_search_methods_through_api () =
  let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
  List.iter
    (fun (m : Flextensor.Method.t) ->
      let report =
        Flextensor.optimize
          ~options:{ options with search = m.name } graph Flextensor.Target.v100
      in
      check_bool (m.name ^ " works") true report.perf.valid)
    (Flextensor.Method.all)

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

let test_analysis_embedded_in_report () =
  let graph = Flextensor.Operators.conv2d ~batch:1 ~in_channels:3 ~out_channels:4
      ~height:6 ~width:6 ~kernel:3 ~pad:1 () in
  let report = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  Alcotest.(check int) "two nodes" 2 report.analysis.num_nodes;
  Alcotest.(check int) "conv reduce loops" 3 report.analysis.total_reduce

(* The facade adds no defaults of its own: [optimize] with
   [default_options] is bit-for-bit the table's method run on
   [Search_loop.default_params]. *)
let test_default_options_are_default_params () =
  let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
  let target = Flextensor.Target.v100 in
  let space = Flextensor.Space.make graph target in
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun search ->
      let report =
        Flextensor.optimize
          ~options:{ Flextensor.default_options with search }
          graph target
      in
      let direct =
        (Flextensor.Method.find_exn search).search
          Flextensor.Search_loop.default_params space
      in
      Alcotest.(check string) (search ^ " config")
        (Flextensor.Config_io.to_string direct.best_config)
        (Flextensor.Config_io.to_string report.config);
      Alcotest.(check int64) (search ^ " perf_value bits")
        (bits direct.best_value) (bits report.perf_value);
      Alcotest.(check int) (search ^ " n_evals") direct.n_evals report.n_evals;
      Alcotest.(check int64) (search ^ " sim_time_s bits")
        (bits direct.sim_time_s) (bits report.sim_time_s))
    [ "Q-method"; "P-method" ]

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
      let measurer cfg = Flextensor.Measure.run ~reps:1 space cfg in
      let plain = Flextensor.optimize ~options graph target in
      let timed = Flextensor.optimize ~options ~measurer graph target in
      Flextensor.Config.equal plain.config timed.config
      && plain.perf_value = timed.perf_value
      && plain.n_evals = timed.n_evals
      && plain.history = timed.history
      && plain.measured = None
      && (match timed.measured with
         | Some { source = Measured _; _ } -> true
         | Some { source = Analytical; _ } -> false
         | None -> not timed.perf.valid))

(* The [?dispatch] contract: an external backend changes only where
   the cost model runs.  This one evaluates in reverse input order and
   restores input order before returning; the seeded search must match
   the in-process one bit for bit. *)
let reversed_dispatch space : Flextensor.Evaluator.dispatch =
 fun keyed ->
  List.rev
    (List.map
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
      List.for_all
        (fun search ->
          let options =
            { Flextensor.default_options with n_trials = 8; seed; search }
          in
          let plain = Flextensor.optimize ~options graph target in
          let dispatched =
            Flextensor.optimize ~options ~dispatch:(reversed_dispatch space)
              graph target
          in
          Flextensor.Config.equal plain.config dispatched.config
          && Int64.equal
               (Int64.bits_of_float plain.perf_value)
               (Int64.bits_of_float dispatched.perf_value)
          && Int64.equal
               (Int64.bits_of_float plain.sim_time_s)
               (Int64.bits_of_float dispatched.sim_time_s)
          && plain.n_evals = dispatched.n_evals)
        [ "Q-method"; "P-method" ])

let test_summary_string () =
  let graph = Flextensor.Operators.gemm ~m:32 ~n:32 ~k:32 in
  let report = Flextensor.optimize ~options graph Flextensor.Target.v100 in
  let summary = Flextensor.report_summary report in
  check_bool "mentions graph" true (String.length summary > 40)

(* The winner's note, as the report prints it, per kind of target:
   pinned so that formatting notes on demand cannot change the text. *)
let test_winner_note_text () =
  let graph = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64 in
  List.iter
    (fun (target, expected) ->
      let report = Flextensor.optimize ~options graph target in
      Alcotest.(check string) (Flextensor.Target.name target) expected
        (Flextensor.Perf.note report.perf))
    Flextensor.Target.[ (v100, "occ=0.50 eff=0.02 compute-bound"); (xeon_e5_2699_v4, "par=16 simd=1.00 memory-bound"); (vu9p, "pe=512 ii=2.0 compute-bound") ]

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
          Alcotest.test_case "embedded analysis" `Quick test_analysis_embedded_in_report;
          Alcotest.test_case "default options are default params" `Quick
            test_default_options_are_default_params;
          QCheck_alcotest.to_alcotest qcheck_measurer_invariance;
          QCheck_alcotest.to_alcotest qcheck_dispatch_bit_for_bit;
          Alcotest.test_case "summary" `Quick test_summary_string;
          Alcotest.test_case "winner note" `Quick test_winner_note_text;
        ] );
    ]
