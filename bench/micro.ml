open Bechamel
open Toolkit

(* Bechamel micro-benchmarks of the framework's hot paths: one
   Test.make per component that the search loop exercises per
   evaluation — plus a wall-clock comparison of batched vs
   point-by-point candidate evaluation.  Results are printed and also
   written to BENCH_micro.json so the perf trajectory is tracked
   across PRs. *)

let c8_on target =
  Ft_schedule.Space.make (Ft_workloads.Yolo.graph (Ft_workloads.Yolo.find "C8")) target

let conv_space = c8_on Ft_schedule.Target.v100

(* A cost-model query row on C8 for [target], at the first random
   config the model accepts (an invalid one returns early). *)
let cost_query_test name target rng =
  let space = c8_on target in
  let rec valid_config () =
    let cfg = Ft_schedule.Space.random_config rng space in
    if (Ft_hw.Cost.evaluate space cfg).valid then cfg else valid_config ()
  in
  let cfg = valid_config () in
  Test.make ~name (Staged.stage (fun () -> Ft_hw.Cost.evaluate space cfg))

let tests () =
  let rng = Ft_util.Rng.create 1 in
  let cfg = Ft_schedule.Space.random_config rng conv_space in
  (* A structurally equal copy: [equal]'s worst case walks every field. *)
  let twin = Ft_schedule.Config.copy cfg in
  let features = Ft_schedule.Space.features conv_space cfg in
  let net =
    Ft_nn.Network.mlp (Ft_util.Rng.create 2)
      ~dims:[| Array.length features; 64; 64; 64; 32 |]
  in
  [
    Test.make ~name:"gpu cost model query"
      (Staged.stage (fun () -> Ft_hw.Cost.evaluate conv_space cfg));
    cost_query_test "cpu cost model query" Ft_schedule.Target.xeon_e5_2699_v4 rng;
    cost_query_test "fpga cost model query" Ft_schedule.Target.vu9p rng;
    Test.make ~name:"space size (closed form)"
      (Staged.stage (fun () -> Ft_schedule.Space.size conv_space));
    Test.make ~name:"random config"
      (Staged.stage (fun () -> Ft_schedule.Space.random_config rng conv_space));
    Test.make ~name:"neighborhood expansion"
      (Staged.stage (fun () -> Ft_schedule.Neighborhood.neighbors conv_space cfg));
    Test.make ~name:"feature embedding"
      (Staged.stage (fun () -> Ft_schedule.Space.features conv_space cfg));
    Test.make ~name:"q-network forward"
      (Staged.stage (fun () -> Ft_nn.Network.forward net features));
    Test.make ~name:"config hash"
      (Staged.stage (fun () -> Ft_schedule.Config.hash cfg));
    Test.make ~name:"config equal"
      (Staged.stage (fun () -> Ft_schedule.Config.equal cfg twin));
    Test.make ~name:"config key (fresh)"
      (Staged.stage (fun () -> Ft_schedule.Config.compute_key cfg));
  ]

(* The "q-network train step" and "q-network train round" rows, in ns
   per call: a fresh network trained on the ~800 samples a
   250-evaluation search trains on (a round of 16 every five recorded
   transitions), inputs and trained outputs from fixed cycles, either
   one sample per call or a round of 16 per call.  Training one output
   on one input for as long as a sampler runs reaches a regime no
   search does: after ~13k steps the idle rows' optimizer state decays
   into subnormals. *)
let q_train_samples = 800

let q_train_ns_per_call ~batch =
  let rng = Ft_util.Rng.create 3 in
  let inputs =
    Array.init 16 (fun _ ->
        Ft_schedule.Space.features conv_space (Ft_schedule.Space.random_config rng conv_space))
  in
  let dims = [| Array.length inputs.(0); 64; 64; 64; 32 |] in
  let outputs = [| 0; 3; 1; 0; 7; 2; 0; 5; 11; 0; 3; 1 |] in
  let calls = q_train_samples / batch in
  let train seed =
    let net = Ft_nn.Network.mlp (Ft_util.Rng.create seed) ~dims in
    let t0 = Ft_util.Monotime.now_s () in
    for c = 0 to calls - 1 do
      ignore
        (Ft_nn.Network.train_round net
           (Array.init batch (fun j ->
                let k = (c * batch) + j in
                ( inputs.(k mod Array.length inputs),
                  outputs.(k mod Array.length outputs),
                  float_of_int (k mod 5) *. 0.25 ))))
    done;
    Ft_util.Monotime.elapsed_s t0
  in
  ignore (train 0);
  let reps = 16 in
  let total = ref 0. in
  for seed = 1 to reps do
    total := !total +. train seed
  done;
  !total *. 1e9 /. float_of_int (reps * calls)

let time_ns_per f reps per =
  let t0 = Ft_util.Monotime.now_s () in
  for _ = 1 to reps do
    f ()
  done;
  Ft_util.Monotime.elapsed_s t0 *. 1e9 /. float_of_int (reps * per)

(* Host GEMM throughput by batch size ([Gemm.gemm_bt], the reference
   kernel). *)
let gemm_gflops_by_batch () =
  let k = 64 and n = 64 in
  let bt = Gemm.mat n k in
  List.map
    (fun m ->
      let a = Gemm.mat m k and c = Gemm.mat m n in
      let reps = max 8 (65536 / m) in
      let ns = time_ns_per (fun () -> Gemm.gemm_bt ~a ~bt ~c) reps 1 in
      let flops = float_of_int (2 * m * n * k) in
      (m, flops /. ns))
    [ 16; 64; 256; 1024 ]

(* Evaluation throughput on the C8 space: the same distinct candidate
   list measured point by point and through [Evaluator.commit_batch].
   The values are identical by construction (see test_explore); only
   evaluations/second moves. *)

(* FT_BENCH_CANDIDATES shrinks the throughput sweep for smoke runs
   (CI runs the whole benchmark on a small sweep just to validate the
   JSON). *)
let throughput_candidates =
  match Sys.getenv_opt "FT_BENCH_CANDIDATES" with
  | None -> 8192
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          Printf.eprintf
            "warning: ignoring FT_BENCH_CANDIDATES=%S (expected a positive \
             integer)\n\
             %!"
            s;
          8192)

let throughput_batch = 512

let distinct_configs n =
  let rng = Ft_util.Rng.create 11 in
  let seen = Ft_schedule.Config.Tbl.create n in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let cfg = Ft_schedule.Space.random_config rng conv_space in
      if Ft_schedule.Config.Tbl.mem seen cfg then go acc k
      else begin
        Ft_schedule.Config.Tbl.add seen cfg ();
        go (cfg :: acc) (k - 1)
      end
  in
  go [] n

let rec batches_of k = function
  | [] -> []
  | xs ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (n - 1) (x :: acc) rest
      in
      let batch, rest = take k [] xs in
      batch :: batches_of k rest

let commit evaluator batch =
  Ft_explore.Evaluator.commit_batch evaluator ~should_stop:(fun () -> false) batch (fun _ _ -> ())

let batched_evals_per_sec cfgs =
  let evaluator = Ft_explore.Evaluator.create conv_space in
  let batches = batches_of throughput_batch cfgs in
  let t0 = Ft_util.Monotime.now_s () in
  List.iter (commit evaluator) batches;
  let dt = Ft_util.Monotime.elapsed_s t0 in
  float_of_int (Ft_explore.Evaluator.n_evals evaluator) /. dt

let sequential_evals_per_sec cfgs =
  let evaluator = Ft_explore.Evaluator.create conv_space in
  let t0 = Ft_util.Monotime.now_s () in
  List.iter (fun cfg -> ignore (Ft_explore.Evaluator.measure evaluator cfg)) cfgs;
  let dt = Ft_util.Monotime.elapsed_s t0 in
  float_of_int (Ft_explore.Evaluator.n_evals evaluator) /. dt

(* Evaluations per *simulated* second: the paper's multi-device
   measurement (Fig 6d/7) — with [n_parallel] devices, each wave of
   fresh points charges the exploration clock max-over-lanes, so
   measurement throughput scales with the device count regardless of
   the host's core count. *)
let simulated_evals_per_sec n_parallel cfgs =
  let evaluator = Ft_explore.Evaluator.create ~n_parallel conv_space in
  List.iter (commit evaluator) (batches_of throughput_batch cfgs);
  float_of_int (Ft_explore.Evaluator.n_evals evaluator)
  /. Ft_explore.Evaluator.clock evaluator

let measure_throughput () =
  let cfgs = distinct_configs throughput_candidates in
  (* warm-up: fault in the code paths so the first row isn't charged
     for them *)
  ignore (sequential_evals_per_sec (List.filteri (fun i _ -> i < 256) cfgs));
  let sequential = sequential_evals_per_sec cfgs in
  let batched = batched_evals_per_sec cfgs in
  let simulated = List.map (fun n -> (n, simulated_evals_per_sec n cfgs)) [ 1; 4 ] in
  (sequential, batched, simulated)

(* Search scaling: the P-method on one conv2d/xeon job at two trial
   budgets.  A trial's bookkeeping cost must not grow with the size of
   H, so evals/s at 1000 trials should stay close to evals/s at 250;
   [ratio] (1000 / 250) compares the host with itself. *)
let scaling_trials = [ 250; 1000 ]

let search_scaling () =
  let space =
    Ft_schedule.Space.make
      (Result.get_ok
         (Ft_workloads.Catalog.graph_of ~op:"conv2d" ~dims:[ 1; 64; 56; 56; 64; 3; 3 ]))
      (Result.get_ok (Ft_workloads.Catalog.target_of "xeon"))
  in
  List.map
    (fun n_trials ->
      let t0 = Ft_util.Monotime.now_s () in
      let result =
        Ft_explore.P_method.search_params
          { Ft_explore.Search_loop.default_params with n_trials }
          space
      in
      (n_trials, float_of_int result.n_evals /. Ft_util.Monotime.elapsed_s t0))
    scaling_trials

let scaling_ratio scaling = List.assoc 1000 scaling /. List.assoc 250 scaling

(* BENCH_micro.json, rounded to the printed precision. *)
let micro_json ~ns_rows ~gemm ~sequential ~batched ~simulated ~scaling =
  let module J = Ft_util.Json in
  let num digits x =
    let scale = 10. ** float_of_int digits in
    J.Num (Float.round (x *. scale) /. scale)
  in
  let table digits label rows =
    J.Obj (List.map (fun (k, x) -> (label k, num digits x)) rows)
  in
  J.Obj
    ((("space", J.Str "yolo C8 on v100 (cost model rows: v100, xeon, vu9p)")
     :: Bench_common.host_fields ())
    @ [
      ("ns_per_call", table 0 Fun.id ns_rows);
      ("batched_kernels", J.Obj [ ("gemm_gflops", table 2 (Printf.sprintf "b%d") gemm) ]);
      ( "batched_eval",
        J.Obj
          [
            ("candidates", J.Num (float_of_int throughput_candidates));
            ("batch", J.Num (float_of_int throughput_batch));
            ("sequential_evals_per_sec", num 1 sequential);
            ("batched_evals_per_sec", num 1 batched);
            ( "simulated_evals_per_sim_sec",
              table 1 (Printf.sprintf "n_parallel_%d") simulated );
            ( "simulated_speedup_n_parallel_4",
              num 2 (List.assoc 4 simulated /. List.assoc 1 simulated) );
          ] );
      ( "search_scaling",
        J.Obj
          [
            ("job", J.Str "P-method conv2d 1 64 56 56 64 3 3 on xeon");
            ("evals_per_sec", table 1 (Printf.sprintf "trials_%d") scaling);
            ("ratio", num 2 (scaling_ratio scaling));
          ] );
      ])

let run () =
  Bench_common.section "Micro-benchmarks (bechamel, ns per call)";
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.2) ~kde:None () in
  let grouped = Test.make_grouped ~name:"flextensor" ~fmt:"%s.%s" (tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ estimate ] -> rows := (name, estimate) :: !rows
      | _ -> ())
    results;
  let ns_rows =
    List.sort compare
      (("flextensor.q-network train step", q_train_ns_per_call ~batch:1)
      :: ("flextensor.q-network train round", q_train_ns_per_call ~batch:16)
      :: !rows)
  in
  Ft_util.Table.print ~header:[ "hot path"; "ns/call" ]
    (List.map (fun (a, b) -> [ a; Printf.sprintf "%.0f" b ]) ns_rows);
  Bench_common.subsection "host GEMM reference (Bigarray)";
  let gemm = gemm_gflops_by_batch () in
  Ft_util.Table.print ~header:[ "GEMM batch (m x 64 x 64)"; "GFLOP/s" ]
    (List.map
       (fun (m, gflops) -> [ string_of_int m; Printf.sprintf "%.2f" gflops ])
       gemm);
  Bench_common.subsection "batched evaluation throughput (C8 space)";
  let sequential, batched, simulated = measure_throughput () in
  Ft_util.Table.print ~header:[ "path"; "evals/sec"; "vs sequential" ]
    [ [ "sequential"; Printf.sprintf "%.0f" sequential; "1.00x" ];
      [ Printf.sprintf "batched (%d per batch)" throughput_batch;
        Printf.sprintf "%.0f" batched;
        Printf.sprintf "%.2fx" (batched /. sequential) ] ];
  Bench_common.subsection "simulated multi-device measurement (Fig 6d/7 clock)";
  Ft_util.Table.print ~header:[ "devices"; "evals per simulated sec" ]
    (List.map
       (fun (n, rate) ->
         [ Printf.sprintf "n_parallel %d" n; Printf.sprintf "%.1f" rate ])
       simulated);
  Bench_common.subsection "search scaling (P-method, conv2d on xeon)";
  let scaling = search_scaling () in
  Ft_util.Table.print ~header:[ "trials"; "evals/sec" ]
    (List.map
       (fun (n, rate) -> [ string_of_int n; Printf.sprintf "%.0f" rate ])
       scaling);
  Printf.printf "ratio (1000 / 250): %.2f\n" (scaling_ratio scaling);
  Out_channel.with_open_text "BENCH_micro.json" (fun oc ->
      output_string oc
        (Ft_util.Json.to_string
           (micro_json ~ns_rows ~gemm ~sequential ~batched ~simulated ~scaling));
      output_char oc '\n');
  print_endline "\n[wrote BENCH_micro.json]"
