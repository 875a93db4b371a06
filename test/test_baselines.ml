open Ft_schedule

let check_bool = Alcotest.(check bool)
let params = Ft_explore.Search_loop.default_params

let conv3x3 =
  Ft_ir.Operators.conv2d ~batch:1 ~in_channels:64 ~out_channels:64 ~height:28
    ~width:28 ~kernel:3 ~pad:1 ()

let conv3x3_strided =
  Ft_ir.Operators.conv2d ~batch:1 ~in_channels:64 ~out_channels:64 ~height:28
    ~width:28 ~kernel:3 ~stride:2 ~pad:1 ()

let conv1x1 =
  Ft_ir.Operators.conv2d ~batch:1 ~in_channels:64 ~out_channels:64 ~height:28
    ~width:28 ~kernel:1 ()

let test_op_kind_classification () =
  let kind g = Ft_baselines.Op_kind.classify g in
  check_bool "gemm" true (kind (Ft_ir.Operators.gemm ~m:8 ~n:8 ~k:8) = Ft_baselines.Op_kind.Matmul_like);
  check_bool "conv3x3" true (kind conv3x3 = Ft_baselines.Op_kind.Conv { kernel = 3; strided = false });
  check_bool "strided" true
    (kind conv3x3_strided = Ft_baselines.Op_kind.Conv { kernel = 3; strided = true });
  check_bool "t2d" true
    (kind
       (Ft_ir.Operators.conv2d_transposed ~batch:1 ~in_channels:4 ~out_channels:4
          ~height:8 ~width:8 ~kernel:3 ~stride:2 ~pad:1 ())
    = Ft_baselines.Op_kind.Transposed_conv);
  check_bool "grp" true
    (kind
       (Ft_ir.Operators.group_conv2d ~batch:1 ~in_channels:8 ~out_channels:8
          ~height:8 ~width:8 ~kernel:3 ~pad:1 ~groups:2 ())
    = Ft_baselines.Op_kind.Group_conv);
  check_bool "shift" true
    (kind (Ft_ir.Operators.shift ~batch:1 ~channels:9 ~height:4 ~width:4)
    = Ft_baselines.Op_kind.Shift_like)

(* Winograd does fewer FLOPs than direct, so it wins wherever it is
   offered: the chosen algorithm shows what was offered. *)
let test_cudnn_winograd_dispatch () =
  let algo g = (Ft_baselines.Cudnn.evaluate Target.v100 g).algo in
  Alcotest.(check string) "winograd offered for 3x3 s1" "winograd" (algo conv3x3);
  Alcotest.(check string) "no winograd when strided" "direct" (algo conv3x3_strided);
  Alcotest.(check string) "no winograd for 1x1" "direct" (algo conv1x1);
  Alcotest.(check string) "transposed" "implicit-gemm"
    (algo
       (Ft_ir.Operators.conv2d_transposed ~batch:1 ~in_channels:4 ~out_channels:4
          ~height:8 ~width:8 ~kernel:3 ~stride:2 ~pad:1 ()))

let test_cudnn_picks_winograd_when_faster () =
  let verdict = Ft_baselines.Cudnn.evaluate Target.v100 conv3x3 in
  Alcotest.(check string) "winograd wins on 3x3" "winograd" verdict.algo;
  check_bool "valid" true verdict.perf.valid

let test_support_matrices () =
  check_bool "cudnn no matmul" false
    (Ft_baselines.Cudnn.supported (Ft_ir.Operators.gemm ~m:8 ~n:8 ~k:8));
  check_bool "cudnn conv" true (Ft_baselines.Cudnn.supported conv3x3);
  check_bool "cublas matmul" true
    (Ft_baselines.Cublas.supported (Ft_ir.Operators.gemm ~m:8 ~n:8 ~k:8));
  check_bool "cublas no conv" false (Ft_baselines.Cublas.supported conv3x3);
  check_bool "mkldnn conv" true (Ft_baselines.Mkldnn.supported conv3x3)

let test_all_baselines_produce_valid_perf () =
  let checks =
    [
      (fun () -> (Ft_baselines.Cudnn.evaluate Target.v100 conv3x3).perf);
      (fun () -> snd (Ft_baselines.Cublas.evaluate Target.v100 (Ft_ir.Operators.gemm ~m:128 ~n:128 ~k:128)));
      (fun () -> snd (Ft_baselines.Pytorch_native.evaluate Target.v100 conv3x3));
      (fun () -> snd (Ft_baselines.Pytorch_native.evaluate Target.xeon_e5_2699_v4 conv3x3));
      (fun () -> snd (Ft_baselines.Mkldnn.evaluate Target.xeon_e5_2699_v4 conv3x3));
      (fun () -> snd (Ft_baselines.Opencl_fpga.evaluate Target.vu9p conv3x3));
      (fun () -> snd (Ft_baselines.Handtuned.evaluate Target.v100 conv3x3));
    ]
  in
  List.iter
    (fun f ->
      let perf = f () in
      check_bool "valid" true perf.Ft_hw.Perf.valid;
      check_bool "positive gflops" true (perf.gflops > 0.))
    checks

let test_library_candidates_valid () =
  let space = Space.make conv3x3 Target.v100 in
  List.iter
    (fun cfg -> check_bool "gpu candidate valid" true (Space.valid space cfg))
    (Ft_baselines.Library.gpu_candidates space);
  let cpu_space = Space.make conv3x3 Target.xeon_e5_2699_v4 in
  List.iter
    (fun cfg -> check_bool "cpu candidate valid" true (Space.valid cpu_space cfg))
    (Ft_baselines.Library.cpu_candidates cpu_space)

let test_autotvm_template_smaller_than_space () =
  let space = Space.make conv3x3 Target.v100 in
  let mainline = Ft_explore.Autotvm.template_size ~template:`Divisor space in
  let paper_era = Ft_explore.Autotvm.template_size ~template:`Paper_era space in
  check_bool "paper-era < mainline" true (paper_era < mainline);
  check_bool "mainline < full space" true (mainline < Space.size space);
  check_bool "space at least 100x bigger than mainline" true
    (Space.size space /. mainline > 100.)

let test_autotvm_paper_era_search () =
  let space = Space.make conv3x3 Target.v100 in
  let result =
    Ft_explore.Autotvm.search_params ~template:`Paper_era
      { params with seed = 3; n_trials = 4 } space
  in
  check_bool "valid" true (Space.valid space result.best_config);
  check_bool "positive" true (result.best_value > 0.);
  (* paper-era templates never use virtual threading *)
  check_bool "no vthread" true
    (Array.for_all (fun parts -> parts.(1) = 1) result.best_config.spatial)

let test_best_of_falls_back_when_all_invalid () =
  (* awkward T3D shape invalidates every library candidate; the library
     must still return a valid (slow) kernel *)
  let graph =
    Ft_ir.Operators.conv3d_transposed ~batch:1 ~in_channels:3 ~out_channels:64
      ~depth:8 ~height:56 ~width:56 ~kernel:3 ~stride:2 ~pad:1 ()
  in
  let verdict = Ft_baselines.Cudnn.evaluate Target.v100 graph in
  check_bool "fallback valid" true verdict.perf.valid

let test_autotvm_search_stays_in_space () =
  let space = Space.make conv3x3 Target.v100 in
  let result =
    Ft_explore.Autotvm.search_params
      { params with seed = 1; n_trials = 4 } space
  in
  check_bool "valid result" true (Space.valid space result.best_config);
  check_bool "positive" true (result.best_value > 0.);
  Alcotest.(check string) "method name" "AutoTVM" result.method_name

let test_autotvm_deterministic () =
  let space = Space.make conv3x3 Target.v100 in
  let a =
    Ft_explore.Autotvm.search_params
      { params with seed = 9; n_trials = 3 } space
  in
  let b =
    Ft_explore.Autotvm.search_params
      { params with seed = 9; n_trials = 3 } space
  in
  Alcotest.(check (float 1e-9)) "same best" a.best_value b.best_value

let () =
  Alcotest.run "ft_baselines"
    [
      ( "dispatch",
        [
          Alcotest.test_case "op classification" `Quick test_op_kind_classification;
          Alcotest.test_case "winograd dispatch" `Quick test_cudnn_winograd_dispatch;
          Alcotest.test_case "winograd wins" `Quick test_cudnn_picks_winograd_when_faster;
          Alcotest.test_case "support matrices" `Quick test_support_matrices;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "all baselines valid" `Quick
            test_all_baselines_produce_valid_perf;
          Alcotest.test_case "candidates valid" `Quick test_library_candidates_valid;
        ] );
      ( "autotvm",
        [
          Alcotest.test_case "template smaller" `Quick
            test_autotvm_template_smaller_than_space;
          Alcotest.test_case "paper-era template" `Quick test_autotvm_paper_era_search;
          Alcotest.test_case "library fallback" `Quick
            test_best_of_falls_back_when_all_invalid;
          Alcotest.test_case "search in space" `Quick test_autotvm_search_stays_in_space;
          Alcotest.test_case "deterministic" `Quick test_autotvm_deterministic;
        ] );
    ]
