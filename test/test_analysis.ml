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
    ("GMV", List.hd (Ft_workloads.Suites.find "GMV"), 1, 1, 1);
    ("GMM", List.hd (Ft_workloads.Suites.find "GMM"), 1, 2, 1);
    ("BIL", List.hd (Ft_workloads.Suites.find "BIL"), 1, 2, 2);
    ("C1D", List.hd (Ft_workloads.Suites.find "C1D"), 2, 6, 2);
    ("T1D", List.hd (Ft_workloads.Suites.find "T1D"), 3, 9, 2);
    ("C2D", List.hd (Ft_workloads.Suites.find "C2D"), 2, 8, 3);
    ("T2D", List.hd (Ft_workloads.Suites.find "T2D"), 3, 12, 3);
    ("C3D", List.hd (Ft_workloads.Suites.find "C3D"), 2, 10, 4);
    ("T3D", List.hd (Ft_workloads.Suites.find "T3D"), 3, 15, 4);
    ("GRP", List.hd (Ft_workloads.Suites.find "GRP"), 2, 8, 3);
    ("DEP", List.hd (Ft_workloads.Suites.find "DEP"), 2, 8, 2);
    ("DIL", List.hd (Ft_workloads.Suites.find "DIL"), 2, 8, 3);
  ]

let test_table3_structure () =
  List.iter
    (fun (abbr, (case : Ft_workloads.Suites.case), nodes, sl, rl) ->
      let info = Static_analyzer.analyze case.graph in
      check_int (abbr ^ " #node") nodes info.num_nodes;
      check_int (abbr ^ " #sl") sl info.total_spatial;
      check_int (abbr ^ " #rl") rl info.total_reduce)
    representative

(* The analyzer's record of the node the back-end schedules. *)
let scheduled_node graph =
  let op = Ft_schedule.Space.compute_node graph in
  List.find
    (fun (n : Static_analyzer.node_info) -> String.equal n.output op.output)
    (Static_analyzer.analyze graph).nodes

let test_gemm_example_of_fig3 () =
  (* Figure 3(c): GEMM has #sl 2, #rl 1, stc [m; n], rtc [k]. *)
  let node = scheduled_node (Ft_ir.Operators.gemm ~m:1024 ~n:512 ~k:256) in
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

(* The scheduled node is the analyzer's heaviest, and of equally heavy
   nodes the last: shift is zero-FLOP throughout, so its output node
   is picked only through the tie rule. *)
let test_compute_node_is_heaviest () =
  let conv = Ft_ir.Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:2
      ~height:4 ~width:4 ~kernel:3 ~pad:1 () in
  Alcotest.(check string) "conv node" "conv2d" (scheduled_node conv).tag;
  let cases =
    List.concat_map snd Ft_workloads.Suites.all
    @ Ft_workloads.Suites.bcm_cases @ Ft_workloads.Suites.shift_cases
  in
  List.iter
    (fun (case : Ft_workloads.Suites.case) ->
      let info = Static_analyzer.analyze case.graph in
      let node = scheduled_node case.graph in
      let heaviest =
        List.fold_left (fun acc (n : Static_analyzer.node_info) -> max acc n.flops) 0 info.nodes
      in
      let rec after = function
        | [] -> []
        | (n : Static_analyzer.node_info) :: rest ->
            if String.equal n.output node.output then rest else after rest
      in
      check_int (case.case_name ^ " heaviest") heaviest node.flops;
      check_bool (case.case_name ^ " last of the heaviest") true
        (List.for_all
           (fun (n : Static_analyzer.node_info) -> n.flops < heaviest)
           (after info.nodes)))
    cases;
  Alcotest.(check string) "shift takes the output node" "shift"
    (scheduled_node (List.hd Ft_workloads.Suites.shift_cases).graph).tag

let test_flops_ranges_of_table3 () =
  (* Table 3 gives per-benchmark FLOP ranges; spot-check two suites. *)
  List.iter
    (fun (case : Ft_workloads.Suites.case) ->
      let flops = Ft_ir.Op.graph_flops case.graph in
      check_bool ("C2D " ^ case.case_name ^ " in range") true
        (flops > 50_000_000 && flops < 8_000_000_000))
    (Ft_workloads.Suites.find "C2D");
  List.iter
    (fun (case : Ft_workloads.Suites.case) ->
      let flops = Ft_ir.Op.graph_flops case.graph in
      check_bool ("DEP " ^ case.case_name ^ " small") true (flops < 60_000_000))
    (Ft_workloads.Suites.find "DEP")

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
    (Ft_explore.Method.find_exn "Q-method").search
      { params with seed = 1; n_trials = 20 } space
  in
  let eff =
    result.best_value /. Roofline.ceiling_gflops roofline Ft_schedule.Target.v100
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
