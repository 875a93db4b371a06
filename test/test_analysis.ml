open Ft_analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let params = Ft_explore.Search_loop.default_params

(* One representative case per Table-3 benchmark, with expected node
   and reduce-loop counts.  Spatial-loop counts are our analyzer's
   (they include producer-node loops; Table 3 is internally
   inconsistent about this — see EXPERIMENTS.md). *)
let representative =
  [
    ("GMV", List.nth Ft_workloads.Suites.gemv_cases 0, 1, 1, 1);
    ("GMM", List.nth Ft_workloads.Suites.gemm_cases 0, 1, 2, 1);
    ("BIL", List.nth Ft_workloads.Suites.bilinear_cases 0, 1, 2, 2);
    ("C1D", List.nth Ft_workloads.Suites.conv1d_cases 0, 2, 6, 2);
    ("T1D", List.nth Ft_workloads.Suites.t1d_cases 0, 3, 9, 2);
    ("C2D", List.nth Ft_workloads.Suites.conv2d_cases 0, 2, 8, 3);
    ("T2D", List.nth Ft_workloads.Suites.t2d_cases 0, 3, 12, 3);
    ("C3D", List.nth Ft_workloads.Suites.conv3d_cases 0, 2, 10, 4);
    ("T3D", List.nth Ft_workloads.Suites.t3d_cases 0, 3, 15, 4);
    ("GRP", List.nth Ft_workloads.Suites.group_cases 0, 2, 8, 3);
    ("DEP", List.nth Ft_workloads.Suites.depthwise_cases 0, 2, 8, 2);
    ("DIL", List.nth Ft_workloads.Suites.dilated_cases 0, 2, 8, 3);
  ]

let test_table3_structure () =
  List.iter
    (fun (abbr, (case : Ft_workloads.Suites.case), nodes, sl, rl) ->
      let info = Static_analyzer.analyze case.graph in
      check_int (abbr ^ " #node") nodes info.num_nodes;
      check_int (abbr ^ " #sl") sl info.total_spatial;
      check_int (abbr ^ " #rl") rl info.total_reduce)
    representative

let test_gemm_example_of_fig3 () =
  (* Figure 3(c): GEMM has #sl 2, #rl 1, stc [m; n], rtc [k]. *)
  let info = Static_analyzer.analyze (Ft_ir.Operators.gemm ~m:1024 ~n:512 ~k:256) in
  let node = Static_analyzer.compute_node info in
  check_int "#sl" 2 node.num_spatial;
  check_int "#rl" 1 node.num_reduce;
  Alcotest.(check (list int)) "stc" [ 1024; 512 ] node.spatial_trip_counts;
  Alcotest.(check (list int)) "rtc" [ 256 ] node.reduce_trip_counts;
  Alcotest.(check (list string)) "order" [ "i"; "j"; "k" ] node.loop_order;
  check_int "#in" 2 node.num_inputs;
  check_int "#out" 1 node.num_outputs;
  check_int "#cs" 0 node.num_consumers

let test_consumer_counts () =
  let conv = Ft_ir.Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:2
      ~height:4 ~width:4 ~kernel:3 ~pad:1 () in
  let info = Static_analyzer.analyze conv in
  let pad = List.hd info.nodes in
  check_int "pad consumed once" 1 pad.num_consumers

let test_compute_node_is_heaviest () =
  let conv = Ft_ir.Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:2
      ~height:4 ~width:4 ~kernel:3 ~pad:1 () in
  let node = Static_analyzer.compute_node (Static_analyzer.analyze conv) in
  Alcotest.(check string) "conv node" "conv2d" node.tag

let test_flops_ranges_of_table3 () =
  (* Table 3 gives per-benchmark FLOP ranges; spot-check two suites. *)
  List.iter
    (fun (case : Ft_workloads.Suites.case) ->
      let flops = Ft_ir.Op.graph_flops case.graph in
      check_bool ("C2D " ^ case.case_name ^ " in range") true
        (flops > 50_000_000 && flops < 8_000_000_000))
    Ft_workloads.Suites.conv2d_cases;
  List.iter
    (fun (case : Ft_workloads.Suites.case) ->
      let flops = Ft_ir.Op.graph_flops case.graph in
      check_bool ("DEP " ^ case.case_name ^ " small") true (flops < 60_000_000))
    Ft_workloads.Suites.depthwise_cases

let check_float = Alcotest.(check (float 1e-6))

let test_roofline_gemm () =
  (* GEMM 1024^3: 2.15 GFLOPs over (2 inputs + 1 output) x 4 MB. *)
  let graph = Ft_ir.Operators.gemm ~m:1024 ~n:1024 ~k:1024 in
  let roofline = Roofline.of_graph graph in
  Alcotest.(check int) "flops" (2 * 1024 * 1024 * 1024) roofline.flops;
  Alcotest.(check int) "bytes" (3 * 1024 * 1024 * 4) roofline.compulsory_bytes;
  check_float "intensity" (2048. /. 12.) roofline.intensity;
  (* high intensity: compute bound on V100 *)
  check_bool "gemm compute bound" false
    (Roofline.memory_bound roofline Ft_schedule.Target.v100)

let test_roofline_gemv_memory_bound () =
  let graph = Ft_ir.Operators.gemv ~m:1024 ~k:1024 in
  let roofline = Roofline.of_graph graph in
  check_bool "gemv memory bound" true
    (Roofline.memory_bound roofline Ft_schedule.Target.v100);
  (* ceiling below peak *)
  check_bool "ceiling below peak" true
    (Roofline.ceiling_gflops roofline Ft_schedule.Target.v100
    < Ft_schedule.Target.peak_gflops Ft_schedule.Target.v100)

let test_roofline_bounds_search_results () =
  (* No explored schedule may beat the roofline. *)
  let graph = Ft_workloads.Yolo.graph (Ft_workloads.Yolo.find "C7") in
  let roofline = Roofline.of_graph graph in
  let space = Ft_schedule.Space.make graph Ft_schedule.Target.v100 in
  let result =
    Ft_explore.Q_method.search_params
      { params with seed = 1; n_trials = 20 } space
  in
  let eff =
    Roofline.efficiency roofline Ft_schedule.Target.v100 ~gflops:result.best_value
  in
  check_bool "within roofline" true (eff <= 1.0 +. 1e-9);
  check_bool "achieves something" true (eff > 0.05)

let () =
  Alcotest.run "ft_analysis"
    [
      ( "static analyzer",
        [
          Alcotest.test_case "table 3 structure" `Quick test_table3_structure;
          Alcotest.test_case "fig 3 GEMM info" `Quick test_gemm_example_of_fig3;
          Alcotest.test_case "consumer counts" `Quick test_consumer_counts;
          Alcotest.test_case "compute node" `Quick test_compute_node_is_heaviest;
          Alcotest.test_case "FLOP ranges" `Quick test_flops_ranges_of_table3;
        ] );
      ( "roofline",
        [
          Alcotest.test_case "gemm" `Quick test_roofline_gemm;
          Alcotest.test_case "gemv memory bound" `Quick test_roofline_gemv_memory_bound;
          Alcotest.test_case "bounds search" `Quick test_roofline_bounds_search_results;
        ] );
    ]
