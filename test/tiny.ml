(* Small instances of all 14 operator families, for correctness tests
   where full graphs must be executed point by point. *)

open Ft_ir

let case case_name graph = { Ft_workloads.Suites.case_name; graph }

let cases =
  [
    case "gemv" (Operators.gemv ~m:6 ~k:8);
    case "gemm" (Operators.gemm ~m:6 ~n:4 ~k:8);
    case "bilinear" (Operators.bilinear ~m:4 ~n:3 ~k:5 ~l:2);
    case "conv1d"
      (Operators.conv1d ~batch:2 ~in_channels:3 ~out_channels:4 ~length:10 ~kernel:3
         ~pad:1 ());
    case "t1d"
      (Operators.conv1d_transposed ~batch:1 ~in_channels:3 ~out_channels:4 ~length:6
         ~kernel:3 ~stride:2 ~pad:1 ());
    case "conv2d"
      (Operators.conv2d ~batch:1 ~in_channels:3 ~out_channels:4 ~height:8 ~width:8
         ~kernel:3 ~pad:1 ());
    case "t2d"
      (Operators.conv2d_transposed ~batch:1 ~in_channels:3 ~out_channels:2 ~height:5
         ~width:5 ~kernel:3 ~stride:2 ~pad:1 ());
    case "conv3d"
      (Operators.conv3d ~batch:1 ~in_channels:2 ~out_channels:3 ~depth:4 ~height:6
         ~width:6 ~kernel:3 ~pad:1 ());
    case "t3d"
      (Operators.conv3d_transposed ~batch:1 ~in_channels:2 ~out_channels:2 ~depth:3
         ~height:4 ~width:4 ~kernel:3 ~stride:2 ~pad:1 ());
    case "grp"
      (Operators.group_conv2d ~batch:1 ~in_channels:8 ~out_channels:8 ~height:6
         ~width:6 ~kernel:3 ~pad:1 ~groups:4 ());
    case "dep"
      (Operators.depthwise_conv2d ~batch:1 ~channels:6 ~height:6 ~width:6 ~kernel:3
         ~pad:1 ());
    case "dil"
      (Operators.dilated_conv2d ~batch:1 ~in_channels:3 ~out_channels:4 ~height:9
         ~width:9 ~kernel:3 ~pad:2 ~dilation:2 ());
    case "bcm" (Operators.bcm ~m:5 ~n:8 ~k:12 ~block:4);
    case "shift" (Operators.shift ~batch:2 ~channels:9 ~height:6 ~width:6);
  ]
