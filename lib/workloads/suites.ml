open Ft_ir

(* Per-operator test-case suites matching Table 3's case counts and
   FLOP ranges.  C2D/T2D use the 15 YOLO layers, as §6.3 does. *)

type case = { case_name : string; graph : Op.graph }

let case case_name graph = { case_name; graph }

let gemv_cases =
  List.map
    (fun (m, k) -> case (Printf.sprintf "%dx%d" m k) (Operators.gemv ~m ~k))
    [ (256, 256); (512, 512); (1024, 1024); (2048, 2048); (4096, 4096); (1024, 8192) ]

let gemm_cases =
  List.map
    (fun (m, n, k) ->
      case (Printf.sprintf "%dx%dx%d" m n k) (Operators.gemm ~m ~n ~k))
    [ (64, 64, 64); (128, 128, 128); (256, 256, 256); (512, 512, 512);
      (1024, 1024, 1024); (2048, 1024, 1024); (1024, 1024, 4096) ]

let bilinear_cases =
  List.map
    (fun (m, n, k, l) ->
      case (Printf.sprintf "%dx%dx%dx%d" m n k l) (Operators.bilinear ~m ~n ~k ~l))
    [ (128, 128, 64, 64); (256, 128, 64, 32); (128, 256, 32, 64); (256, 256, 32, 32);
      (512, 128, 32, 32) ]

let conv1d_shapes =
  [ (64, 128, 4096, 3); (128, 128, 4096, 3); (64, 256, 8192, 3); (128, 256, 2048, 7);
    (256, 256, 2048, 3); (256, 512, 1024, 3); (512, 512, 1024, 3) ]

let conv1d_cases =
  List.map
    (fun (c, k, length, kernel) ->
      case
        (Printf.sprintf "c%d_k%d_l%d_k%d" c k length kernel)
        (Operators.conv1d ~batch:1 ~in_channels:c ~out_channels:k ~length ~kernel
           ~pad:(kernel / 2) ()))
    conv1d_shapes

let t1d_cases =
  List.map
    (fun (c, k, length, kernel) ->
      case
        (Printf.sprintf "c%d_k%d_l%d_k%d" c k length kernel)
        (Operators.conv1d_transposed ~batch:1 ~in_channels:c ~out_channels:k
           ~length:(length / 2) ~kernel ~stride:2 ~pad:(kernel / 2) ()))
    conv1d_shapes

let conv2d_cases =
  List.map (fun layer -> case layer.Yolo.name (Yolo.graph layer)) Yolo.layers

let t2d_cases =
  List.map
    (fun layer ->
      case layer.Yolo.name
        (Operators.conv2d_transposed ~batch:1 ~in_channels:layer.Yolo.c
           ~out_channels:layer.Yolo.k ~height:(layer.Yolo.hw / 2)
           ~width:(layer.Yolo.hw / 2) ~kernel:layer.Yolo.kernel ~stride:2
           ~pad:(layer.Yolo.kernel / 2) ()))
    Yolo.layers

let conv3d_shapes =
  [ (3, 64, 8, 112, 7); (64, 128, 8, 56, 3); (128, 128, 8, 28, 3); (128, 256, 8, 28, 3);
    (256, 256, 4, 14, 3); (256, 512, 4, 14, 3); (512, 512, 4, 7, 3); (64, 64, 16, 56, 3) ]

let conv3d_cases =
  List.map
    (fun (c, k, d, hw, kernel) ->
      case
        (Printf.sprintf "c%d_k%d_d%d_s%d" c k d hw)
        (Operators.conv3d ~batch:1 ~in_channels:c ~out_channels:k ~depth:d ~height:hw
           ~width:hw ~kernel ~pad:(kernel / 2) ()))
    conv3d_shapes

let t3d_cases =
  List.map
    (fun (c, k, d, hw, kernel) ->
      case
        (Printf.sprintf "c%d_k%d_d%d_s%d" c k d hw)
        (Operators.conv3d_transposed ~batch:1 ~in_channels:c ~out_channels:k
           ~depth:(max 2 (d / 2)) ~height:(hw / 2) ~width:(hw / 2) ~kernel ~stride:2
           ~pad:(kernel / 2) ()))
    conv3d_shapes

let group_cases =
  List.map
    (fun (c, k, hw, groups) ->
      case
        (Printf.sprintf "c%d_k%d_s%d_g%d" c k hw groups)
        (Operators.group_conv2d ~batch:1 ~in_channels:c ~out_channels:k ~height:hw
           ~width:hw ~kernel:3 ~pad:1 ~groups ()))
    [ (64, 64, 56, 4); (128, 128, 56, 4); (128, 128, 28, 8); (256, 256, 28, 8);
      (256, 256, 14, 8); (512, 512, 14, 16); (512, 512, 28, 32); (1024, 1024, 14, 32);
      (128, 256, 28, 4); (256, 512, 14, 8); (64, 128, 56, 2); (512, 1024, 7, 16);
      (256, 256, 56, 16); (1024, 1024, 7, 32) ]

let depthwise_cases =
  List.map
    (fun (c, hw) ->
      case
        (Printf.sprintf "c%d_s%d" c hw)
        (Operators.depthwise_conv2d ~batch:1 ~channels:c ~height:hw ~width:hw ~kernel:3
           ~pad:1 ()))
    [ (32, 112); (64, 112); (128, 56); (256, 28); (512, 14); (1024, 7); (96, 56) ]

let dilated_cases =
  List.map
    (fun (c, k, hw, dilation) ->
      case
        (Printf.sprintf "c%d_k%d_s%d_d%d" c k hw dilation)
        (Operators.dilated_conv2d ~batch:1 ~in_channels:c ~out_channels:k ~height:hw
           ~width:hw ~kernel:3 ~pad:dilation ~dilation ()))
    [ (64, 64, 56, 2); (64, 128, 56, 2); (128, 128, 28, 2); (128, 256, 28, 2);
      (256, 256, 28, 2); (256, 256, 14, 2); (256, 512, 14, 2); (512, 512, 14, 2);
      (512, 512, 14, 4); (256, 256, 28, 4); (128, 128, 56, 4) ]

let bcm_cases =
  List.map
    (fun (m, n, k, block) ->
      case (Printf.sprintf "%dx%dx%d_b%d" m n k block) (Operators.bcm ~m ~n ~k ~block))
    [ (64, 1024, 1024, 8); (128, 1024, 1024, 16); (64, 2048, 2048, 8);
      (256, 1024, 1024, 32); (64, 4096, 1024, 16) ]

let shift_cases =
  List.map
    (fun (c, hw) ->
      case
        (Printf.sprintf "c%d_s%d" c hw)
        (Operators.shift ~batch:1 ~channels:c ~height:hw ~width:hw))
    [ (64, 56); (128, 28); (256, 28); (512, 14); (1024, 7) ]

(* The 12 Table-3 benchmarks, keyed by the paper's abbreviations. *)
let all =
  [
    ("GMV", gemv_cases); ("GMM", gemm_cases); ("BIL", bilinear_cases);
    ("C1D", conv1d_cases); ("T1D", t1d_cases); ("C2D", conv2d_cases);
    ("T2D", t2d_cases); ("C3D", conv3d_cases); ("T3D", t3d_cases);
    ("GRP", group_cases); ("DEP", depthwise_cases); ("DIL", dilated_cases);
  ]

let find abbr =
  match List.assoc_opt abbr all with
  | Some cases -> cases
  | None -> invalid_arg (Printf.sprintf "Suites.find: unknown operator %s" abbr)
