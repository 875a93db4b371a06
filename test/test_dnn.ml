let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tiny_conv =
  Ft_ir.Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:3 ~height:5 ~width:5
    ~kernel:3 ~pad:1 ()

let test_fused_graph_structure () =
  let fused = Ft_dnn.Fusion.with_bias_relu tiny_conv in
  check_int "4 nodes: pad, conv, bias, relu" 4 (List.length fused.ops);
  Alcotest.(check string) "output" "O.relu" fused.output;
  check_bool "validates" true (Result.is_ok (Ft_ir.Op.validate fused))

let test_fused_graph_semantics () =
  (* Execute the fused graph and compare with a manual conv + bias +
     relu pipeline on the same inputs. *)
  let fused = Ft_dnn.Fusion.with_bias_relu tiny_conv in
  let rng = Ft_util.Rng.create 3 in
  let env = Ft_interp.Reference.random_env rng fused in
  let out = Ft_interp.Reference.run_graph env fused in
  check_bool "relu clamps at zero" true (Array.for_all (fun x -> x >= 0.) out);
  (* recompute manually *)
  let conv_out = Ft_interp.Buffer_env.(to_array (find env "O")) in
  let bias = Ft_interp.Buffer_env.(to_array (find env "bias")) in
  let per_channel = Array.length conv_out / Array.length bias in
  Array.iteri
    (fun i x ->
      let expected = Float.max 0. (conv_out.(i) +. bias.(i / per_channel)) in
      check_bool "matches manual pipeline" true (Float.abs (x -. expected) < 1e-6))
    out

(* Regression: a rank-0/1 output has no channel axis to broadcast the
   bias over.  This used to surface as a bare [Failure "nth"] from
   [List.nth]; it must be a descriptive [Invalid_argument] naming the
   layer. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_fusion_rejects_low_rank () =
  List.iter
    (fun (graph, rank) ->
      match Ft_dnn.Fusion.with_bias_relu graph with
      | _ -> Alcotest.failf "rank-%d output must not fuse" rank
      | exception Invalid_argument msg ->
          check_bool "names the layer" true
            (contains ~sub:graph.Ft_ir.Op.graph_name msg);
          check_bool "names the rank" true
            (contains ~sub:(Printf.sprintf "rank %d" rank) msg))
    [ (Ft_ir.Operators.gemv ~m:8 ~k:8, 1); (Ft_ir.Operators.gemm ~m:8 ~n:8 ~k:8, 2) ]

let test_count_occurrences () =
  let layers =
    List.map
      (fun layer -> (layer.Ft_workloads.Yolo.name, Ft_workloads.Yolo.graph layer))
      Ft_workloads.Yolo.full_network
  in
  let distinct = Ft_dnn.Runner.count_occurrences layers in
  check_int "15 distinct" 15 (List.length distinct);
  let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 distinct in
  check_int "24 total" 24 total;
  let _, _, c7 = List.find (fun (name, _, _) -> name = "C7") distinct in
  check_int "C7 repeats 4x" 4 c7

(* Regression: dedup used to key by name alone and silently keep the
   first graph, so a name collision between two different shapes
   dropped a layer's real latency.  It must refuse instead. *)
let test_count_occurrences_name_collision () =
  let other =
    Ft_ir.Operators.conv2d ~batch:1 ~in_channels:4 ~out_channels:3 ~height:5
      ~width:5 ~kernel:3 ~pad:1 ()
  in
  check_bool "same graph under one name is fine" true
    (match Ft_dnn.Runner.count_occurrences [ ("L", tiny_conv); ("L", tiny_conv) ] with
    | [ (_, _, 2) ] -> true
    | _ -> false);
  Alcotest.check_raises "differing graphs refuse"
    (Invalid_argument
       "Runner.count_occurrences: layer name \"L\" stands for two different \
        graphs") (fun () ->
      ignore (Ft_dnn.Runner.count_occurrences [ ("L", tiny_conv); ("L", other) ]))

let test_single_layer_run () =
  let layers = [ ("L", tiny_conv, 2) ] in
  let result =
    Ft_dnn.Runner.run ~max_evals:40 ~network:"tiny" ~target:Ft_schedule.Target.v100
      layers "Q-method"
  in
  check_int "one layer time" 1 (List.length result.layer_times);
  check_bool "total accounts occurrences" true
    (result.total_s
    >= 2. *. (List.hd result.layer_times).kernel_s -. 1e-12);
  Alcotest.(check string) "name" "FlexTensor" result.optimizer_name

(* Fused graphs must survive the full schedule-and-execute path: the
   conv node is scheduled, the epilogue is materialized after it, and
   the result matches the reference. *)
let test_fused_graph_schedules_correctly () =
  let fused = Ft_dnn.Fusion.with_bias_relu tiny_conv in
  let rng = Ft_util.Rng.create 13 in
  List.iter
    (fun target ->
      let space = Ft_schedule.Space.make fused target in
      for i = 0 to 3 do
        let cfg =
          if i = 0 then Ft_schedule.Space.default_config space
          else Ft_schedule.Space.random_config rng space
        in
        match Ft_lower.Verify.check space cfg with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: %s" (Ft_schedule.Target.name target) msg
      done)
    Ft_schedule.Target.[ v100; xeon_e5_2699_v4; vu9p ]

let () =
  Alcotest.run "ft_dnn"
    [
      ( "fusion",
        [
          Alcotest.test_case "structure" `Quick test_fused_graph_structure;
          Alcotest.test_case "semantics" `Quick test_fused_graph_semantics;
          Alcotest.test_case "rejects low rank" `Quick test_fusion_rejects_low_rank;
          Alcotest.test_case "fused schedule correctness" `Quick
            test_fused_graph_schedules_correctly;
        ] );
      ( "runner",
        [
          Alcotest.test_case "occurrence counting" `Quick test_count_occurrences;
          Alcotest.test_case "name collision" `Quick
            test_count_occurrences_name_collision;
          Alcotest.test_case "single layer" `Quick test_single_layer_run;
        ] );
    ]
