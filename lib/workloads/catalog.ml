(* The named targets and operators the CLI and the benchmark build
   from: `flextensor optimize OP DIMS -t TARGET` resolves through
   here. *)

let targets =
  [
    ("v100", Ft_schedule.Target.v100);
    ("p100", Ft_schedule.Target.p100);
    ("titanx", Ft_schedule.Target.titan_x);
    ("xeon", Ft_schedule.Target.xeon_e5_2699_v4);
    ("vu9p", Ft_schedule.Target.vu9p);
  ]

(* Accept both the CLI key ("titanx") and the canonical Target.name
   ("TitanX"): either spelling resolves the same target. *)
let target_of name =
  match List.assoc_opt name targets with
  | Some t -> Ok t
  | None -> (
      match
        List.find_opt (fun (_, t) -> Ft_schedule.Target.name t = name) targets
      with
      | Some (_, t) -> Ok t
      | None -> Error (Printf.sprintf "unknown target %S" name))

(* Operator construction from a name and dims: the table behind
   `flextensor optimize OP DIMS` and the benchmark's operator specs. *)
let graph_of ~op ~dims =
  match (op, dims) with
  | "gemv", [ m; k ] -> Ok (Ft_ir.Operators.gemv ~m ~k)
  | "gemm", [ m; n; k ] -> Ok (Ft_ir.Operators.gemm ~m ~n ~k)
  | "bilinear", [ m; n; k; l ] -> Ok (Ft_ir.Operators.bilinear ~m ~n ~k ~l)
  | "conv1d", [ batch; in_channels; out_channels; length; kernel ] ->
      Ok
        (Ft_ir.Operators.conv1d ~batch ~in_channels ~out_channels ~length
           ~kernel ~pad:(kernel / 2) ())
  | "t1d", [ batch; in_channels; out_channels; length; kernel ] ->
      Ok
        (Ft_ir.Operators.conv1d_transposed ~batch ~in_channels ~out_channels
           ~length ~kernel ~stride:2 ~pad:(kernel / 2) ())
  | "conv2d", [ batch; in_channels; out_channels; height; width; kernel ] ->
      Ok
        (Ft_ir.Operators.conv2d ~batch ~in_channels ~out_channels ~height
           ~width ~kernel ~pad:(kernel / 2) ())
  | "conv2d", [ batch; in_channels; out_channels; height; width; kernel; stride ]
    ->
      Ok
        (Ft_ir.Operators.conv2d ~batch ~in_channels ~out_channels ~height
           ~width ~kernel ~stride ~pad:(kernel / 2) ())
  | "t2d", [ batch; in_channels; out_channels; height; width; kernel ] ->
      Ok
        (Ft_ir.Operators.conv2d_transposed ~batch ~in_channels ~out_channels
           ~height ~width ~kernel ~stride:2 ~pad:(kernel / 2) ())
  | "conv3d", [ batch; in_channels; out_channels; depth; height; width; kernel ]
    ->
      Ok
        (Ft_ir.Operators.conv3d ~batch ~in_channels ~out_channels ~depth
           ~height ~width ~kernel ~pad:(kernel / 2) ())
  | "t3d", [ batch; in_channels; out_channels; depth; height; width; kernel ] ->
      Ok
        (Ft_ir.Operators.conv3d_transposed ~batch ~in_channels ~out_channels
           ~depth ~height ~width ~kernel ~stride:2 ~pad:(kernel / 2) ())
  | "grp", [ batch; in_channels; out_channels; height; width; kernel; groups ]
    ->
      Ok
        (Ft_ir.Operators.group_conv2d ~batch ~in_channels ~out_channels
           ~height ~width ~kernel ~pad:(kernel / 2) ~groups ())
  | "dep", [ batch; channels; height; width; kernel ] ->
      Ok
        (Ft_ir.Operators.depthwise_conv2d ~batch ~channels ~height ~width
           ~kernel ~pad:(kernel / 2) ())
  | "dil", [ batch; in_channels; out_channels; height; width; kernel; dilation ]
    ->
      Ok
        (Ft_ir.Operators.dilated_conv2d ~batch ~in_channels ~out_channels
           ~height ~width ~kernel ~pad:dilation ~dilation ())
  | "bcm", [ m; n; k; block ] -> Ok (Ft_ir.Operators.bcm ~m ~n ~k ~block)
  | "shift", [ batch; channels; height; width ] ->
      Ok (Ft_ir.Operators.shift ~batch ~channels ~height ~width)
  | "yolo", [ index ] when index >= 1 && index <= 15 ->
      Ok (Yolo.graph (Yolo.find (Printf.sprintf "C%d" index)))
  | _ ->
      Error
        (Printf.sprintf
           "unknown operator %s with %d dims; try e.g. `gemm 512 512 512`, \
            `conv2d 1 64 128 56 56 3`, `yolo 7`"
           op (List.length dims))
