open Ft_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_euclid () =
  check_int "div pos" 2 (Expr.euclid_div 7 3);
  check_int "div neg" (-3) (Expr.euclid_div (-7) 3);
  check_int "mod pos" 1 (Expr.euclid_mod 7 3);
  check_int "mod neg" 2 (Expr.euclid_mod (-7) 3);
  check_int "mod neg small" 3 (Expr.euclid_mod (-1) 4)

let test_eval_iexpr () =
  let open Expr in
  let env = [ ("i", 5); ("j", 3) ] in
  check_int "add" 8 (eval_iexpr env (v "i" +: v "j"));
  check_int "sub" 2 (eval_iexpr env (v "i" -: v "j"));
  check_int "mul" 15 (eval_iexpr env (v "i" *: v "j"));
  check_int "div" 1 (eval_iexpr env (v "i" /: v "j"));
  check_int "mod" 2 (eval_iexpr env (v "i" %: v "j"));
  Alcotest.check_raises "unbound"
    (Invalid_argument "Expr.eval_iexpr: unbound index z") (fun () ->
      ignore (eval_iexpr env (v "z")))

let test_eval_cond () =
  let open Expr in
  let env = [ ("i", 5) ] in
  check_bool "ge true" true (eval_cond env (Ge (v "i", c 5)));
  check_bool "lt false" false (eval_cond env (Lt (v "i", c 5)));
  check_bool "eq" true (eval_cond env (Eq (v "i", c 5)));
  check_bool "and" false (eval_cond env (And (Ge (v "i", c 0), Lt (v "i", c 5))))

let test_ivars_and_accesses () =
  let open Expr in
  let e = Mul (Access ("A", [ v "i"; v "k" ]), Access ("B", [ v "k"; v "j" ])) in
  Alcotest.(check (list string)) "tensors" [ "A"; "B" ] (tensors_read e);
  check_int "accesses" 2 (List.length (accesses e));
  Alcotest.(check (list string)) "ivars sorted" [ "i"; "j"; "k" ]
    (List.sort_uniq compare (ivars_of_texpr e))

let test_flops_of_texpr () =
  let open Expr in
  check_int "mul" 1 (flops_of_texpr (Mul (Access ("A", [ v "i" ]), Const 2.)));
  check_int "select free" 0
    (flops_of_texpr (Select (Ge (v "i", c 0), Access ("A", [ v "i" ]), Const 0.)));
  check_int "nested" 2
    (flops_of_texpr (Add (Mul (Const 1., Const 2.), Const 3.)))

let test_subst () =
  let open Expr in
  let e = Access ("A", [ v "i" +: c 1 ]) in
  let s = subst_texpr [ ("i", v "x" *: c 2) ] e in
  Alcotest.(check string) "substituted" "A[((x * 2) + 1)]" (texpr_to_string s)

let test_op_flops () =
  let gemm = Operators.gemm ~m:16 ~n:8 ~k:32 in
  check_int "gemm flops 2mnk" (2 * 16 * 8 * 32) (Op.graph_flops gemm);
  let conv = Operators.conv2d ~batch:2 ~in_channels:3 ~out_channels:4 ~height:8
      ~width:8 ~kernel:3 ~pad:1 () in
  (* padding node contributes 0 FLOPs; conv = 2*N*K*H*W*C*kh*kw *)
  check_int "conv2d flops" (2 * 2 * 4 * 8 * 8 * 3 * 3 * 3) (Op.graph_flops conv);
  let bil = Operators.bilinear ~m:4 ~n:5 ~k:6 ~l:7 in
  check_int "bilinear 3 flops per point" (3 * 4 * 5 * 6 * 7) (Op.graph_flops bil);
  let shift = Operators.shift ~batch:1 ~channels:9 ~height:4 ~width:4 in
  check_int "shift zero flops" 0 (Op.graph_flops shift)

let test_out_shapes () =
  let conv = Operators.conv2d ~batch:2 ~in_channels:3 ~out_channels:4 ~height:9
      ~width:9 ~kernel:3 ~stride:2 ~pad:1 () in
  Alcotest.(check (list int)) "strided conv shape" [ 2; 4; 5; 5 ]
    (Op.out_shape (Op.output_op conv));
  let t2d = Operators.conv2d_transposed ~batch:1 ~in_channels:2 ~out_channels:3
      ~height:5 ~width:5 ~kernel:4 ~stride:2 ~pad:1 () in
  (* (5-1)*2 - 2 + 4 = 10 *)
  Alcotest.(check (list int)) "t2d shape" [ 1; 3; 10; 10 ]
    (Op.out_shape (Op.output_op t2d))

let test_conv_out_size () =
  let out_size ?(dilation = 1) ~size ~pad ~stride () =
    let graph =
      if dilation = 1 then
        Operators.conv2d ~stride ~pad ~batch:1 ~in_channels:1 ~out_channels:1 ~height:size
          ~width:size ~kernel:3 ()
      else
        Operators.dilated_conv2d ~dilation ~stride ~pad ~batch:1 ~in_channels:1
          ~out_channels:1 ~height:size ~width:size ~kernel:3 ()
    in
    List.nth (Op.out_shape (Op.output_op graph)) 2
  in
  check_int "same pad" 8 (out_size ~size:8 ~pad:1 ~stride:1 ());
  check_int "stride 2" 4 (out_size ~size:8 ~pad:1 ~stride:2 ());
  check_int "dilated" 5 (out_size ~dilation:2 ~size:9 ~pad:0 ~stride:1 ())

let test_node_counts () =
  let count g = List.length g.Op.ops in
  check_int "gemm 1 node" 1 (count (Operators.gemm ~m:4 ~n:4 ~k:4));
  check_int "conv2d 2 nodes" 2
    (count (Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:2 ~height:4
              ~width:4 ~kernel:3 ~pad:1 ()));
  check_int "t2d 3 nodes" 3
    (count (Operators.conv2d_transposed ~batch:1 ~in_channels:2 ~out_channels:2
              ~height:4 ~width:4 ~kernel:3 ~stride:2 ~pad:1 ()))

let test_validate_errors () =
  let bad_axis () = ignore (Op.axis "i" 0) in
  Alcotest.check_raises "zero extent"
    (Invalid_argument "Op.axis: extent of i must be positive") bad_axis;
  let node =
    { Op.tag = "bad"; output = "O"; spatial = [ Op.axis "i" 4 ]; reduce = [];
      init = 0.; combine = Op.Acc_sum;
      body = Expr.Access ("missing", [ Expr.v "i" ]) }
  in
  let graph =
    { Op.graph_name = "bad"; inputs = []; ops = [ node ]; output = "O" }
  in
  let rejected graph =
    match Op.validate_exn graph with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "unknown tensor rejected" true (rejected graph);
  let arity =
    { node with body = Expr.Access ("A", [ Expr.v "i"; Expr.v "i" ]) }
  in
  let graph2 =
    { Op.graph_name = "bad2"; inputs = [ ("A", [ 4 ]) ]; ops = [ arity ]; output = "O" }
  in
  check_bool "arity mismatch rejected" true (rejected graph2);
  let unbound = { node with body = Expr.Access ("A", [ Expr.v "z" ]) } in
  let graph3 =
    { Op.graph_name = "bad3"; inputs = [ ("A", [ 4 ]) ]; ops = [ unbound ]; output = "O" }
  in
  check_bool "unbound var rejected" true (rejected graph3)

(* Stride, dilation and groups below 1 and negative padding are
   rejected by name in every convolution family, before any division by
   them; the CLI fixes the transposed families' stride and every pad,
   so only these direct calls reach those cases. *)
let test_degenerate_conv_params () =
  let rejects what msg build = Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (build ())) in
  let open Operators in
  rejects "conv2d stride 0" "Operators: stride must be >= 1, got 0" (fun () ->
      conv2d ~stride:0 ~batch:1 ~in_channels:2 ~out_channels:2 ~height:4 ~width:4 ~kernel:3 ());
  rejects "t1d stride 0" "Operators: stride must be >= 1, got 0" (fun () ->
      conv1d_transposed ~stride:0 ~batch:1 ~in_channels:2 ~out_channels:2 ~length:4 ~kernel:3 ());
  rejects "t2d stride 0" "Operators: stride must be >= 1, got 0" (fun () ->
      conv2d_transposed ~stride:0 ~batch:1 ~in_channels:2 ~out_channels:2 ~height:4 ~width:4
        ~kernel:3 ());
  rejects "t3d stride -1" "Operators: stride must be >= 1, got -1" (fun () ->
      conv3d_transposed ~stride:(-1) ~batch:1 ~in_channels:2 ~out_channels:2 ~depth:4 ~height:4
        ~width:4 ~kernel:3 ());
  rejects "dep stride 0" "Operators: stride must be >= 1, got 0" (fun () ->
      depthwise_conv2d ~stride:0 ~batch:1 ~channels:2 ~height:4 ~width:4 ~kernel:3 ());
  rejects "conv2d pad -1" "Operators: pad must be >= 0, got -1" (fun () ->
      conv2d ~pad:(-1) ~batch:1 ~in_channels:2 ~out_channels:2 ~height:4 ~width:4 ~kernel:3 ());
  rejects "t2d pad -1" "Operators: pad must be >= 0, got -1" (fun () ->
      conv2d_transposed ~stride:2 ~pad:(-1) ~batch:1 ~in_channels:2 ~out_channels:2 ~height:4
        ~width:4 ~kernel:3 ());
  rejects "c3d pad -2" "Operators: pad must be >= 0, got -2" (fun () ->
      conv3d ~pad:(-2) ~batch:1 ~in_channels:2 ~out_channels:2 ~depth:4 ~height:4 ~width:4
        ~kernel:3 ());
  rejects "grp groups 0" "Operators: groups must be >= 1, got 0" (fun () ->
      group_conv2d ~batch:1 ~in_channels:4 ~out_channels:4 ~height:4 ~width:4 ~kernel:3
        ~groups:0 ());
  rejects "dil dilation 0" "Operators: dilation must be >= 1, got 0" (fun () ->
      dilated_conv2d ~dilation:0 ~batch:1 ~in_channels:2 ~out_channels:2 ~height:8 ~width:8
        ~kernel:3 ());
  rejects "bcm block 0" "Operators: block must be >= 1, got 0" (fun () ->
      bcm ~m:4 ~n:4 ~k:4 ~block:0);
  rejects "bcm block -2" "Operators: block must be >= 1, got -2" (fun () ->
      bcm ~m:4 ~n:4 ~k:4 ~block:(-2))

let test_graph_navigation () =
  let conv = Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:2 ~height:4
      ~width:4 ~kernel:3 ~pad:1 () in
  let out = Op.output_op conv in
  check_int "producers of conv" 1 (List.length (Op.producers conv out));
  check_int "consumers of pad" 1 (List.length (Op.consumers conv "I.pad"));
  check_bool "tensor shape of input" true
    (Op.tensor_shape conv "I" = Some [ 1; 2; 4; 4 ]);
  check_bool "tensor shape of intermediate" true
    (Op.tensor_shape conv "I.pad" = Some [ 1; 2; 6; 6 ])

let test_all_builders_validate () =
  (* validate_exn already ran inside each builder; walking the suite
     ensures every family constructs. *)
  check_int "tiny suite has all 14 families" 14
    (List.length Tiny.cases)

(* Every workload graph, marshalled without sharing: graph names are
   tuning-log keys and node structure feeds schedule-space derivation,
   so any drift in the builders changes this digest. *)
let workload_graphs_digest () =
  let open Ft_workloads in
  let graphs =
    List.concat_map (fun (_, cases) -> List.map (fun c -> c.Suites.graph) cases) Suites.all
    @ List.map (fun c -> c.Suites.graph) Tiny.cases
    @ List.map (fun l -> Yolo.graph l) Yolo.layers
    @ List.map (fun l -> Overfeat.graph l) Overfeat.layers
  in
  Digest.to_hex (Digest.string (Marshal.to_string graphs [ Marshal.No_sharing ]))

let test_golden_graph_digest () =
  Alcotest.(check string) "workload graphs unchanged" "e0faab0d4c0df6a5dba1e1e723f48dc4"
    (workload_graphs_digest ())

let qcheck_gemm_flops =
  QCheck.Test.make ~name:"gemm flops" ~count:30
    QCheck.(triple (int_range 1 16) (int_range 1 16) (int_range 1 16))
    (fun (m, n, k) -> Op.graph_flops (Operators.gemm ~m ~n ~k) = 2 * m * n * k)

let () =
  Alcotest.run "ft_ir"
    [
      ( "expr",
        [
          Alcotest.test_case "euclidean div/mod" `Quick test_euclid;
          Alcotest.test_case "eval iexpr" `Quick test_eval_iexpr;
          Alcotest.test_case "eval cond" `Quick test_eval_cond;
          Alcotest.test_case "ivars/accesses" `Quick test_ivars_and_accesses;
          Alcotest.test_case "flops" `Quick test_flops_of_texpr;
          Alcotest.test_case "substitution" `Quick test_subst;
        ] );
      ( "op",
        [
          Alcotest.test_case "flop counts" `Quick test_op_flops;
          Alcotest.test_case "output shapes" `Quick test_out_shapes;
          Alcotest.test_case "conv out size" `Quick test_conv_out_size;
          Alcotest.test_case "node counts" `Quick test_node_counts;
          Alcotest.test_case "validation errors" `Quick test_validate_errors;
          Alcotest.test_case "degenerate conv parameters" `Quick test_degenerate_conv_params;
          Alcotest.test_case "graph navigation" `Quick test_graph_navigation;
          Alcotest.test_case "all builders" `Quick test_all_builders_validate;
          Alcotest.test_case "golden graph digest" `Quick test_golden_graph_digest;
          QCheck_alcotest.to_alcotest qcheck_gemm_flops;
        ] );
    ]
