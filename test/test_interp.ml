open Ft_ir

let check_float = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

let env_with bindings =
  let env = Ft_interp.Buffer_env.create () in
  List.iter (fun (name, shape, data) -> Ft_interp.Buffer_env.set env name shape data)
    bindings;
  env

let test_gemm_known () =
  (* [[1 2];[3 4]] x [[5 6];[7 8]] = [[19 22];[43 50]] *)
  let graph = Operators.gemm ~m:2 ~n:2 ~k:2 in
  let env =
    env_with
      [ ("A", [ 2; 2 ], [| 1.; 2.; 3.; 4. |]); ("B", [ 2; 2 ], [| 5.; 6.; 7.; 8. |]) ]
  in
  let out = Ft_interp.Reference.run_graph env graph in
  Alcotest.(check (array (float 1e-6))) "gemm" [| 19.; 22.; 43.; 50. |] out

let test_gemv_known () =
  let graph = Operators.gemv ~m:2 ~k:3 in
  let env =
    env_with
      [ ("A", [ 2; 3 ], [| 1.; 2.; 3.; 4.; 5.; 6. |]); ("B", [ 3 ], [| 1.; 0.; 2. |]) ]
  in
  let out = Ft_interp.Reference.run_graph env graph in
  Alcotest.(check (array (float 1e-6))) "gemv" [| 7.; 16. |] out

let test_conv2d_ones () =
  (* all-ones input and kernel: interior outputs = C*kh*kw, corners see
     padding. *)
  let graph =
    Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:1 ~height:4 ~width:4
      ~kernel:3 ~pad:1 ()
  in
  let env =
    env_with
      [ ("I", [ 1; 2; 4; 4 ], Array.make 32 1.);
        ("W", [ 1; 2; 3; 3 ], Array.make 18 1.) ]
  in
  let out = Ft_interp.Reference.run_graph env graph in
  (* output 4x4: corner = 2*4=8, edge = 2*6=12, interior = 2*9=18 *)
  check_float "corner" 8. out.(0);
  check_float "edge" 12. out.(1);
  check_float "interior" 18. out.(5)

let test_pad_semantics () =
  let graph =
    Operators.conv1d ~batch:1 ~in_channels:1 ~out_channels:1 ~length:3 ~kernel:3
      ~pad:1 ()
  in
  let env =
    env_with [ ("I", [ 1; 1; 3 ], [| 1.; 2.; 3. |]); ("W", [ 1; 1; 3 ], [| 1.; 1.; 1. |]) ]
  in
  let out = Ft_interp.Reference.run_graph env graph in
  Alcotest.(check (array (float 1e-6))) "sliding sums with zero pad"
    [| 3.; 6.; 5. |] out

let test_transposed_conv1d () =
  (* stride-2 transposed conv with identity-like kernel reproduces the
     standard gradient-of-conv upsampling. *)
  let graph =
    Operators.conv1d_transposed ~batch:1 ~in_channels:1 ~out_channels:1 ~length:2
      ~kernel:2 ~stride:2 ~pad:0 ()
  in
  let env =
    env_with [ ("I", [ 1; 1; 2 ], [| 1.; 2. |]); ("W", [ 1; 1; 2 ], [| 10.; 20. |]) ]
  in
  let out = Ft_interp.Reference.run_graph env graph in
  (* out length (2-1)*2 + 2 = 4; out[i] = sum_j I[j] W[i - 2j] *)
  Alcotest.(check (array (float 1e-6))) "t1d" [| 10.; 20.; 20.; 40. |] out

let test_bcm_equals_dense_circulant () =
  (* Expand the circulant weights into a dense matrix and compare
     against a dense GEMM. *)
  let m = 3 and n = 4 and k = 4 and block = 2 in
  let rng = Ft_util.Rng.create 11 in
  let a = Array.init (m * n) (fun _ -> Ft_util.Rng.float rng 2. -. 1.) in
  let w = Array.init (k / block * (n / block) * block)
      (fun _ -> Ft_util.Rng.float rng 2. -. 1.) in
  let graph = Operators.bcm ~m ~n ~k ~block in
  let env = env_with [ ("A", [ m; n ], Array.copy a); ("W", [ k / block; n / block; block ], Array.copy w) ] in
  let out = Ft_interp.Reference.run_graph env graph in
  (* dense expansion: D[t][j] = W[j/b][t/b][(j - t) mod b] *)
  let dense = Array.make (n * k) 0. in
  for t = 0 to n - 1 do
    for j = 0 to k - 1 do
      let jb = j / block and tb = t / block in
      let off = Expr.euclid_mod (j - t) block in
      dense.((t * k) + j) <- w.((((jb * (n / block)) + tb) * block) + off)
    done
  done;
  let expected = Array.make (m * k) 0. in
  for i = 0 to m - 1 do
    for j = 0 to k - 1 do
      let acc = ref 0. in
      for t = 0 to n - 1 do
        acc := !acc +. (a.((i * n) + t) *. dense.((t * k) + j))
      done;
      expected.((i * k) + j) <- !acc
    done
  done;
  check_float "bcm matches dense" 0. (Ft_interp.Buffer_env.max_abs_diff expected out)

let test_shift_semantics () =
  (* channel 4 has dx = 4 mod 3 - 1 = 0, dy = (4/3) mod 3 - 1 = 0: identity. *)
  let graph = Operators.shift ~batch:1 ~channels:9 ~height:3 ~width:3 in
  let input = Array.init (9 * 9) float_of_int in
  let env = env_with [ ("I", [ 1; 9; 3; 3 ], input) ] in
  let out = Ft_interp.Reference.run_graph env graph in
  (* channel 4 occupies elements 36..44 and must be unchanged *)
  for i = 36 to 44 do
    check_float "identity channel" input.(i) out.(i)
  done;
  (* channel 0: dx=-1, dy=-1 -> O[0,0,i,j] = pad[i+0, j+0] = I[i-1, j-1];
     O at (2,2) = I(1,1) = element 4 *)
  check_float "shifted corner" input.(4) out.(8)

(* A graph of the single node [op] over the given inputs. *)
let graph_of inputs (op : Op.t) =
  { Op.graph_name = op.tag; inputs; ops = [ op ]; output = op.output }

let test_relu_node () =
  let relu = Operators.relu ~input:"X" ~output:"Y" ~shape:[ 1; 1; 2; 2 ] in
  let env = env_with [ ("X", [ 1; 1; 2; 2 ], [| -1.; 2.; -3.; 4. |]) ] in
  Alcotest.(check (array (float 1e-6))) "relu" [| 0.; 2.; 0.; 4. |]
    (Ft_interp.Reference.run_graph env (graph_of [ ("X", [ 1; 1; 2; 2 ]) ] relu))

let test_bias_add () =
  let bias = Operators.bias_add ~input:"X" ~bias:"b" ~output:"Y" ~shape:[ 1; 2; 1; 1 ] in
  let env =
    env_with [ ("X", [ 1; 2; 1; 1 ], [| 1.; 2. |]); ("b", [ 2 ], [| 10.; 20. |]) ]
  in
  Alcotest.(check (array (float 1e-6))) "bias" [| 11.; 22. |]
    (Ft_interp.Reference.run_graph env
       (graph_of [ ("X", [ 1; 2; 1; 1 ]); ("b", [ 2 ]) ] bias))

let test_buffer_env_bounds () =
  let env = env_with [ ("X", [ 2; 3 ], Array.make 6 0. ) ] in
  check_bool "in bounds" true (Ft_interp.Buffer_env.get env "X" [ 1; 2 ] = 0.);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Buffer_env.flat_index: X index 3 out of bounds [0, 3)")
    (fun () -> ignore (Ft_interp.Buffer_env.get env "X" [ 1; 3 ]));
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Buffer_env.flat_index: X rank mismatch") (fun () ->
      ignore (Ft_interp.Buffer_env.get env "X" [ 1 ]))

(* Group convolution with one group must agree with dense conv2d on
   identical inputs. *)
let test_group_conv_groups1_equals_conv2d () =
  let rng = Ft_util.Rng.create 21 in
  let dense =
    Operators.conv2d ~batch:1 ~in_channels:3 ~out_channels:4 ~height:6 ~width:6
      ~kernel:3 ~pad:1 ()
  in
  let grouped =
    Operators.group_conv2d ~batch:1 ~in_channels:3 ~out_channels:4 ~height:6
      ~width:6 ~kernel:3 ~pad:1 ~groups:1 ()
  in
  let env_dense = Ft_interp.Reference.random_env rng dense in
  let env_grouped = Ft_interp.Buffer_env.create () in
  List.iter
    (fun (name, shape) ->
      let buffer = Ft_interp.Buffer_env.find env_dense name in
      Ft_interp.Buffer_env.set env_grouped name shape
        (Ft_interp.Buffer_env.to_array buffer))
    dense.inputs;
  let a = Ft_interp.Reference.run_graph env_dense dense in
  let b = Ft_interp.Reference.run_graph env_grouped grouped in
  check_float "identical" 0. (Ft_interp.Buffer_env.max_abs_diff a b)

(* Dilation 1 must agree with plain convolution. *)
let test_dilated_d1_equals_conv2d () =
  let rng = Ft_util.Rng.create 22 in
  let dense =
    Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:3 ~height:7 ~width:7
      ~kernel:3 ~pad:1 ()
  in
  let dilated =
    Operators.dilated_conv2d ~batch:1 ~in_channels:2 ~out_channels:3 ~height:7
      ~width:7 ~kernel:3 ~pad:1 ~dilation:1 ()
  in
  let env_a = Ft_interp.Reference.random_env rng dense in
  let env_b = Ft_interp.Buffer_env.create () in
  List.iter
    (fun (name, shape) ->
      let buffer = Ft_interp.Buffer_env.find env_a name in
      Ft_interp.Buffer_env.set env_b name shape
        (Ft_interp.Buffer_env.to_array buffer))
    dense.inputs;
  let a = Ft_interp.Reference.run_graph env_a dense in
  let b = Ft_interp.Reference.run_graph env_b dilated in
  check_float "identical" 0. (Ft_interp.Buffer_env.max_abs_diff a b)

(* Conv3d with all-ones tensors counts the receptive field. *)
let test_conv3d_ones () =
  let graph =
    Operators.conv3d ~batch:1 ~in_channels:1 ~out_channels:1 ~depth:4 ~height:4
      ~width:4 ~kernel:3 ~pad:1 ()
  in
  let env =
    env_with
      [ ("I", [ 1; 1; 4; 4; 4 ], Array.make 64 1.);
        ("W", [ 1; 1; 3; 3; 3 ], Array.make 27 1.) ]
  in
  let out = Ft_interp.Reference.run_graph env graph in
  (* interior point (1,1,1): full 27-point receptive field *)
  check_float "interior" 27. out.((1 * 16) + (1 * 4) + 1);
  (* corner (0,0,0): 2x2x2 in range *)
  check_float "corner" 8. out.(0)

let test_all_tiny_ops_execute () =
  List.iter
    (fun (case : Ft_workloads.Suites.case) ->
      let env = Ft_interp.Reference.random_env (Ft_util.Rng.create 5) case.graph in
      let out = Ft_interp.Reference.run_graph env case.graph in
      check_bool (case.case_name ^ " finite") true
        (Array.for_all Float.is_finite out))
    Tiny.cases

let () =
  Alcotest.run "ft_interp"
    [
      ( "reference",
        [
          Alcotest.test_case "gemm known values" `Quick test_gemm_known;
          Alcotest.test_case "gemv known values" `Quick test_gemv_known;
          Alcotest.test_case "conv2d with ones" `Quick test_conv2d_ones;
          Alcotest.test_case "padding" `Quick test_pad_semantics;
          Alcotest.test_case "transposed conv1d" `Quick test_transposed_conv1d;
          Alcotest.test_case "bcm = dense circulant" `Quick test_bcm_equals_dense_circulant;
          Alcotest.test_case "shift semantics" `Quick test_shift_semantics;
          Alcotest.test_case "relu" `Quick test_relu_node;
          Alcotest.test_case "bias add" `Quick test_bias_add;
          Alcotest.test_case "grp(g=1) = conv2d" `Quick
            test_group_conv_groups1_equals_conv2d;
          Alcotest.test_case "dil(d=1) = conv2d" `Quick test_dilated_d1_equals_conv2d;
          Alcotest.test_case "conv3d with ones" `Quick test_conv3d_ones;
          Alcotest.test_case "all tiny ops execute" `Quick test_all_tiny_ops_execute;
        ] );
      ( "buffers",
        [ Alcotest.test_case "bounds checking" `Quick test_buffer_env_bounds ] );
    ]
