open Expr

let sum_op ~tag ~output ~spatial ~reduce body =
  { Op.tag; output; spatial; reduce; init = 0.; combine = Op.Acc_sum; body }

let map_op ~tag ~output ~spatial body =
  { Op.tag; output; spatial; reduce = []; init = 0.; combine = Op.Acc_sum; body }

let conv_out_size ~size ~pad ~dilation ~kernel ~stride =
  ((size + (2 * pad) - (dilation * (kernel - 1)) - 1) / stride) + 1

(* Padding node over the trailing [ndims] dimensions of a tensor whose
   leading dims are copied verbatim.  With [pad = 0] it degenerates to a
   copy node (kept so mini-graph structure matches the paper's node
   counts). *)
let pad_node ~tag ~input ~output ~lead_axes ~dims ~pad =
  let dim_axes =
    List.mapi (fun i size -> Op.axis (Printf.sprintf "p%d" i) (size + (2 * pad))) dims
  in
  let lead_idx = List.map (fun a -> v a.Op.axis_name) lead_axes in
  let dim_idx = List.map (fun a -> v a.Op.axis_name -: c pad) dim_axes in
  let access = Access (input, lead_idx @ dim_idx) in
  let body =
    if pad = 0 then access
    else
      let in_range =
        List.map2
          (fun a size ->
            And
              ( Ge (v a.Op.axis_name, c pad),
                Lt (v a.Op.axis_name, c (pad + size)) ))
          dim_axes dims
      in
      let cond =
        match in_range with
        | [] -> invalid_arg "Operators.pad_node: no padded dimensions"
        | first :: rest -> List.fold_left (fun acc cnd -> And (acc, cnd)) first rest
      in
      Select (cond, access, Const 0.)
  in
  map_op ~tag ~output ~spatial:(lead_axes @ dim_axes) body

let gemv ~m ~k =
  let op =
    sum_op ~tag:"gemv" ~output:"O"
      ~spatial:[ Op.axis "i" m ]
      ~reduce:[ Op.axis "k" k ]
      (Mul (Access ("A", [ v "i"; v "k" ]), Access ("B", [ v "k" ])))
  in
  Op.validate_exn
    { graph_name = Printf.sprintf "gemv_%dx%d" m k;
      inputs = [ ("A", [ m; k ]); ("B", [ k ]) ];
      ops = [ op ];
      output = "O";
    }

let gemm ~m ~n ~k =
  let op =
    sum_op ~tag:"gemm" ~output:"O"
      ~spatial:[ Op.axis "i" m; Op.axis "j" n ]
      ~reduce:[ Op.axis "k" k ]
      (Mul (Access ("A", [ v "i"; v "k" ]), Access ("B", [ v "k"; v "j" ])))
  in
  Op.validate_exn
    { graph_name = Printf.sprintf "gemm_%dx%dx%d" m n k;
      inputs = [ ("A", [ m; k ]); ("B", [ k; n ]) ];
      ops = [ op ];
      output = "O";
    }

let bilinear ~m ~n ~k ~l =
  let op =
    sum_op ~tag:"bilinear" ~output:"O"
      ~spatial:[ Op.axis "i" m; Op.axis "j" n ]
      ~reduce:[ Op.axis "k" k; Op.axis "l" l ]
      (Mul
         ( Mul (Access ("A", [ v "i"; v "k" ]), Access ("B", [ v "j"; v "k"; v "l" ])),
           Access ("C", [ v "i"; v "l" ]) ))
  in
  Op.validate_exn
    { graph_name = Printf.sprintf "bilinear_%dx%dx%dx%d" m n k l;
      inputs = [ ("A", [ m; k ]); ("B", [ n; k; l ]); ("C", [ m; l ]) ];
      ops = [ op ];
      output = "O";
    }

let conv1d ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels ~length ~kernel () =
  let out_len = conv_out_size ~size:length ~pad ~dilation:1 ~kernel ~stride in
  let padded =
    pad_node ~tag:"conv1d.pad" ~input:"I" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ length ] ~pad
  in
  let conv =
    sum_op ~tag:"conv1d" ~output:"O"
      ~spatial:[ Op.axis "b" batch; Op.axis "k" out_channels; Op.axis "i" out_len ]
      ~reduce:[ Op.axis "rc" in_channels; Op.axis "rx" kernel ]
      (Mul
         ( Access ("I.pad", [ v "b"; v "rc"; (v "i" *: c stride) +: v "rx" ]),
           Access ("W", [ v "k"; v "rc"; v "rx" ]) ))
  in
  Op.validate_exn
    { graph_name =
        Printf.sprintf "conv1d_b%d_c%d_k%d_l%d_k%d_s%d" batch in_channels
          out_channels length kernel stride;
      inputs = [ ("I", [ batch; in_channels; length ]); ("W", [ out_channels; in_channels; kernel ]) ];
      ops = [ padded; conv ];
      output = "O";
    }

(* Transposed convolution = expand (insert stride-1 zeros), pad by
   kernel-1-pad, then unit-stride convolution with a flipped kernel;
   three nodes, as the paper's Table 3 reports for T1D/T2D/T3D. *)
let expand_node ~tag ~input ~output ~lead_axes ~dims ~stride =
  let dim_axes =
    List.mapi
      (fun i size -> Op.axis (Printf.sprintf "e%d" i) (((size - 1) * stride) + 1))
      dims
  in
  let lead_idx = List.map (fun a -> v a.Op.axis_name) lead_axes in
  let dim_idx = List.map (fun a -> v a.Op.axis_name /: c stride) dim_axes in
  let access = Access (input, lead_idx @ dim_idx) in
  let body =
    if stride = 1 then access
    else
      let aligned =
        List.map (fun a -> Eq (v a.Op.axis_name %: c stride, c 0)) dim_axes
      in
      let cond =
        match aligned with
        | [] -> invalid_arg "Operators.expand_node: no expanded dimensions"
        | first :: rest -> List.fold_left (fun acc cnd -> And (acc, cnd)) first rest
      in
      Select (cond, access, Const 0.)
  in
  map_op ~tag ~output ~spatial:(lead_axes @ dim_axes) body

let conv1d_transposed ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels
    ~length ~kernel () =
  let out_len = (((length - 1) * stride) - (2 * pad)) + kernel in
  let expanded =
    expand_node ~tag:"t1d.expand" ~input:"I" ~output:"I.exp"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ length ] ~stride
  in
  let exp_len = ((length - 1) * stride) + 1 in
  let padded =
    pad_node ~tag:"t1d.pad" ~input:"I.exp" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ exp_len ] ~pad:(kernel - 1 - pad)
  in
  let conv =
    sum_op ~tag:"t1d" ~output:"O"
      ~spatial:[ Op.axis "b" batch; Op.axis "k" out_channels; Op.axis "i" out_len ]
      ~reduce:[ Op.axis "rc" in_channels; Op.axis "rx" kernel ]
      (Mul
         ( Access ("I.pad", [ v "b"; v "rc"; v "i" +: v "rx" ]),
           Access ("W", [ v "rc"; v "k"; c (kernel - 1) -: v "rx" ]) ))
  in
  Op.validate_exn
    { graph_name =
        Printf.sprintf "t1d_b%d_c%d_k%d_l%d_k%d_s%d" batch in_channels out_channels
          length kernel stride;
      inputs = [ ("I", [ batch; in_channels; length ]); ("W", [ in_channels; out_channels; kernel ]) ];
      ops = [ expanded; padded; conv ];
      output = "O";
    }

let conv2d ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels ~height
    ~width ~kernel () =
  let out_h = conv_out_size ~size:height ~pad ~dilation:1 ~kernel ~stride in
  let out_w = conv_out_size ~size:width ~pad ~dilation:1 ~kernel ~stride in
  let padded =
    pad_node ~tag:"conv2d.pad" ~input:"I" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ height; width ] ~pad
  in
  let conv =
    sum_op ~tag:"conv2d" ~output:"O"
      ~spatial:
        [ Op.axis "b" batch; Op.axis "k" out_channels; Op.axis "i" out_h; Op.axis "j" out_w ]
      ~reduce:[ Op.axis "rc" in_channels; Op.axis "rx" kernel; Op.axis "ry" kernel ]
      (Mul
         ( Access
             ( "I.pad",
               [ v "b"; v "rc"; (v "i" *: c stride) +: v "rx"; (v "j" *: c stride) +: v "ry" ] ),
           Access ("W", [ v "k"; v "rc"; v "rx"; v "ry" ]) ))
  in
  Op.validate_exn
    { graph_name =
        Printf.sprintf "conv2d_b%d_c%d_k%d_h%d_w%d_k%d_s%d" batch in_channels
          out_channels height width kernel stride;
      inputs =
        [ ("I", [ batch; in_channels; height; width ]);
          ("W", [ out_channels; in_channels; kernel; kernel ]) ];
      ops = [ padded; conv ];
      output = "O";
    }

let conv2d_transposed ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels
    ~height ~width ~kernel () =
  let out_h = (((height - 1) * stride) - (2 * pad)) + kernel in
  let out_w = (((width - 1) * stride) - (2 * pad)) + kernel in
  let expanded =
    expand_node ~tag:"t2d.expand" ~input:"I" ~output:"I.exp"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ height; width ] ~stride
  in
  let exp_h = ((height - 1) * stride) + 1 and exp_w = ((width - 1) * stride) + 1 in
  let padded =
    pad_node ~tag:"t2d.pad" ~input:"I.exp" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ exp_h; exp_w ] ~pad:(kernel - 1 - pad)
  in
  let conv =
    sum_op ~tag:"t2d" ~output:"O"
      ~spatial:
        [ Op.axis "b" batch; Op.axis "k" out_channels; Op.axis "i" out_h; Op.axis "j" out_w ]
      ~reduce:[ Op.axis "rc" in_channels; Op.axis "rx" kernel; Op.axis "ry" kernel ]
      (Mul
         ( Access ("I.pad", [ v "b"; v "rc"; v "i" +: v "rx"; v "j" +: v "ry" ]),
           Access
             ("W", [ v "rc"; v "k"; c (kernel - 1) -: v "rx"; c (kernel - 1) -: v "ry" ]) ))
  in
  Op.validate_exn
    { graph_name =
        Printf.sprintf "t2d_b%d_c%d_k%d_h%d_w%d_k%d_s%d" batch in_channels
          out_channels height width kernel stride;
      inputs =
        [ ("I", [ batch; in_channels; height; width ]);
          ("W", [ in_channels; out_channels; kernel; kernel ]) ];
      ops = [ expanded; padded; conv ];
      output = "O";
    }

let conv3d ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels ~depth
    ~height ~width ~kernel () =
  let out_d = conv_out_size ~size:depth ~pad ~dilation:1 ~kernel ~stride in
  let out_h = conv_out_size ~size:height ~pad ~dilation:1 ~kernel ~stride in
  let out_w = conv_out_size ~size:width ~pad ~dilation:1 ~kernel ~stride in
  let padded =
    pad_node ~tag:"conv3d.pad" ~input:"I" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ depth; height; width ] ~pad
  in
  let conv =
    sum_op ~tag:"conv3d" ~output:"O"
      ~spatial:
        [ Op.axis "b" batch; Op.axis "k" out_channels; Op.axis "d" out_d;
          Op.axis "i" out_h; Op.axis "j" out_w ]
      ~reduce:
        [ Op.axis "rc" in_channels; Op.axis "rd" kernel; Op.axis "rx" kernel;
          Op.axis "ry" kernel ]
      (Mul
         ( Access
             ( "I.pad",
               [ v "b"; v "rc"; (v "d" *: c stride) +: v "rd";
                 (v "i" *: c stride) +: v "rx"; (v "j" *: c stride) +: v "ry" ] ),
           Access ("W", [ v "k"; v "rc"; v "rd"; v "rx"; v "ry" ]) ))
  in
  Op.validate_exn
    { graph_name =
        Printf.sprintf "conv3d_b%d_c%d_k%d_d%d_h%d_w%d_k%d_s%d" batch in_channels
          out_channels depth height width kernel stride;
      inputs =
        [ ("I", [ batch; in_channels; depth; height; width ]);
          ("W", [ out_channels; in_channels; kernel; kernel; kernel ]) ];
      ops = [ padded; conv ];
      output = "O";
    }

let conv3d_transposed ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels
    ~depth ~height ~width ~kernel () =
  let out_d = (((depth - 1) * stride) - (2 * pad)) + kernel in
  let out_h = (((height - 1) * stride) - (2 * pad)) + kernel in
  let out_w = (((width - 1) * stride) - (2 * pad)) + kernel in
  let expanded =
    expand_node ~tag:"t3d.expand" ~input:"I" ~output:"I.exp"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ depth; height; width ] ~stride
  in
  let exp_d = ((depth - 1) * stride) + 1
  and exp_h = ((height - 1) * stride) + 1
  and exp_w = ((width - 1) * stride) + 1 in
  let padded =
    pad_node ~tag:"t3d.pad" ~input:"I.exp" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ exp_d; exp_h; exp_w ] ~pad:(kernel - 1 - pad)
  in
  let flip var = c (kernel - 1) -: var in
  let conv =
    sum_op ~tag:"t3d" ~output:"O"
      ~spatial:
        [ Op.axis "b" batch; Op.axis "k" out_channels; Op.axis "d" out_d;
          Op.axis "i" out_h; Op.axis "j" out_w ]
      ~reduce:
        [ Op.axis "rc" in_channels; Op.axis "rd" kernel; Op.axis "rx" kernel;
          Op.axis "ry" kernel ]
      (Mul
         ( Access
             ( "I.pad",
               [ v "b"; v "rc"; v "d" +: v "rd"; v "i" +: v "rx"; v "j" +: v "ry" ] ),
           Access ("W", [ v "rc"; v "k"; flip (v "rd"); flip (v "rx"); flip (v "ry") ]) ))
  in
  Op.validate_exn
    { graph_name =
        Printf.sprintf "t3d_b%d_c%d_k%d_d%d_h%d_w%d_k%d_s%d" batch in_channels
          out_channels depth height width kernel stride;
      inputs =
        [ ("I", [ batch; in_channels; depth; height; width ]);
          ("W", [ in_channels; out_channels; kernel; kernel; kernel ]) ];
      ops = [ expanded; padded; conv ];
      output = "O";
    }

let group_conv2d ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels
    ~height ~width ~kernel ~groups () =
  if in_channels mod groups <> 0 || out_channels mod groups <> 0 then
    invalid_arg "Operators.group_conv2d: channels must be divisible by groups";
  let ci = in_channels / groups and ko = out_channels / groups in
  let out_h = conv_out_size ~size:height ~pad ~dilation:1 ~kernel ~stride in
  let out_w = conv_out_size ~size:width ~pad ~dilation:1 ~kernel ~stride in
  let padded =
    pad_node ~tag:"grp.pad" ~input:"I" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ height; width ] ~pad
  in
  let group_base = (v "k" /: c ko) *: c ci in
  let conv =
    sum_op ~tag:"grp" ~output:"O"
      ~spatial:
        [ Op.axis "b" batch; Op.axis "k" out_channels; Op.axis "i" out_h; Op.axis "j" out_w ]
      ~reduce:[ Op.axis "rc" ci; Op.axis "rx" kernel; Op.axis "ry" kernel ]
      (Mul
         ( Access
             ( "I.pad",
               [ v "b"; group_base +: v "rc"; (v "i" *: c stride) +: v "rx";
                 (v "j" *: c stride) +: v "ry" ] ),
           Access ("W", [ v "k"; v "rc"; v "rx"; v "ry" ]) ))
  in
  Op.validate_exn
    { graph_name =
        Printf.sprintf "grp_b%d_c%d_k%d_h%d_w%d_k%d_g%d" batch in_channels
          out_channels height width kernel groups;
      inputs =
        [ ("I", [ batch; in_channels; height; width ]);
          ("W", [ out_channels; ci; kernel; kernel ]) ];
      ops = [ padded; conv ];
      output = "O";
    }

let depthwise_conv2d ?(stride = 1) ?(pad = 0) ~batch ~channels ~height ~width ~kernel
    () =
  (* One filter per input channel, as in every Table 3 DEP case. *)
  let multiplier = 1 in
  let out_h = conv_out_size ~size:height ~pad ~dilation:1 ~kernel ~stride in
  let out_w = conv_out_size ~size:width ~pad ~dilation:1 ~kernel ~stride in
  let out_channels = channels * multiplier in
  let padded =
    pad_node ~tag:"dep.pad" ~input:"I" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" channels ]
      ~dims:[ height; width ] ~pad
  in
  let conv =
    sum_op ~tag:"dep" ~output:"O"
      ~spatial:
        [ Op.axis "b" batch; Op.axis "k" out_channels; Op.axis "i" out_h; Op.axis "j" out_w ]
      ~reduce:[ Op.axis "rx" kernel; Op.axis "ry" kernel ]
      (Mul
         ( Access
             ( "I.pad",
               [ v "b"; v "k" /: c multiplier; (v "i" *: c stride) +: v "rx";
                 (v "j" *: c stride) +: v "ry" ] ),
           Access ("W", [ v "k"; v "rx"; v "ry" ]) ))
  in
  Op.validate_exn
    { graph_name =
        Printf.sprintf "dep_b%d_c%d_h%d_w%d_k%d_m%d" batch channels height width
          kernel multiplier;
      inputs =
        [ ("I", [ batch; channels; height; width ]);
          ("W", [ out_channels; kernel; kernel ]) ];
      ops = [ padded; conv ];
      output = "O";
    }

let dilated_conv2d ?(stride = 1) ?(pad = 0) ?(dilation = 2) ~batch ~in_channels
    ~out_channels ~height ~width ~kernel () =
  let out_h = conv_out_size ~size:height ~pad ~dilation ~kernel ~stride in
  let out_w = conv_out_size ~size:width ~pad ~dilation ~kernel ~stride in
  let padded =
    pad_node ~tag:"dil.pad" ~input:"I" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" in_channels ]
      ~dims:[ height; width ] ~pad
  in
  let conv =
    sum_op ~tag:"dil" ~output:"O"
      ~spatial:
        [ Op.axis "b" batch; Op.axis "k" out_channels; Op.axis "i" out_h; Op.axis "j" out_w ]
      ~reduce:[ Op.axis "rc" in_channels; Op.axis "rx" kernel; Op.axis "ry" kernel ]
      (Mul
         ( Access
             ( "I.pad",
               [ v "b"; v "rc"; (v "i" *: c stride) +: (v "rx" *: c dilation);
                 (v "j" *: c stride) +: (v "ry" *: c dilation) ] ),
           Access ("W", [ v "k"; v "rc"; v "rx"; v "ry" ]) ))
  in
  Op.validate_exn
    { graph_name =
        Printf.sprintf "dil_b%d_c%d_k%d_h%d_w%d_k%d_d%d" batch in_channels
          out_channels height width kernel dilation;
      inputs =
        [ ("I", [ batch; in_channels; height; width ]);
          ("W", [ out_channels; in_channels; kernel; kernel ]) ];
      ops = [ padded; conv ];
      output = "O";
    }

(* Block-circulant matrix multiply (§6.4): within each (j-block,
   t-block) pair the weight matrix is circulant, so one vector of
   [block] parameters represents a [block x block] matrix. *)
let bcm ~m ~n ~k ~block =
  if n mod block <> 0 || k mod block <> 0 then
    invalid_arg "Operators.bcm: dimensions must be divisible by block";
  let op =
    sum_op ~tag:"bcm" ~output:"O"
      ~spatial:[ Op.axis "i" m; Op.axis "j" k ]
      ~reduce:[ Op.axis "t" n ]
      (Mul
         ( Access ("A", [ v "i"; v "t" ]),
           Access ("W", [ v "j" /: c block; v "t" /: c block; (v "j" -: v "t") %: c block ]) ))
  in
  Op.validate_exn
    { graph_name = Printf.sprintf "bcm_%dx%dx%d_b%d" m n k block;
      inputs = [ ("A", [ m; n ]); ("W", [ k / block; n / block; block ]) ];
      ops = [ op ];
      output = "O";
    }

(* Shift operation (§6.4): zero-FLOP, parameter-free; each channel is
   shifted by one of the nine 3x3 offsets chosen by channel index. *)
let shift ~batch ~channels ~height ~width =
  let padded =
    pad_node ~tag:"shift.pad" ~input:"I" ~output:"I.pad"
      ~lead_axes:[ Op.axis "b" batch; Op.axis "c" channels ]
      ~dims:[ height; width ] ~pad:1
  in
  let op =
    map_op ~tag:"shift" ~output:"O"
      ~spatial:
        [ Op.axis "b" batch; Op.axis "c" channels; Op.axis "i" height; Op.axis "j" width ]
      (Access
         ( "I.pad",
           [ v "b"; v "c"; v "i" +: (v "c" %: c 3); v "j" +: ((v "c" /: c 3) %: c 3) ] ))
  in
  Op.validate_exn
    { graph_name = Printf.sprintf "shift_b%d_c%d_h%d_w%d" batch channels height width;
      inputs = [ ("I", [ batch; channels; height; width ]) ];
      ops = [ padded; op ];
      output = "O";
    }

(* Element-wise helpers used when composing DNN layers. *)
let bias_add ~input ~bias ~output ~shape =
  match shape with
  | [ b; k; h; w ] ->
      let spatial =
        [ Op.axis "b" b; Op.axis "k" k; Op.axis "i" h; Op.axis "j" w ]
      in
      map_op ~tag:"bias_add" ~output ~spatial
        (Add (Access (input, [ v "b"; v "k"; v "i"; v "j" ]), Access (bias, [ v "k" ])))
  | _ -> invalid_arg "Operators.bias_add: expected NCHW shape"

(* ReLU is max(x, 0): an Acc_max node whose accumulator starts at 0 and
   combines the single body value — integer conditions cannot test the
   sign of a float, so select is not usable here. *)
let relu ~input ~output ~shape =
  match shape with
  | [ b; k; h; w ] ->
      let spatial =
        [ Op.axis "b" b; Op.axis "k" k; Op.axis "i" h; Op.axis "j" w ]
      in
      let x = Access (input, [ v "b"; v "k"; v "i"; v "j" ]) in
      { Op.tag = "relu"; output; spatial; reduce = []; init = 0.; combine = Op.Acc_max;
        body = x }
  | _ -> invalid_arg "Operators.relu: expected NCHW shape"

let max_pool2d ~input ~output ~shape ~kernel ~stride =
  match shape with
  | [ b; k; h; w ] ->
      let out_h = ((h - kernel) / stride) + 1 and out_w = ((w - kernel) / stride) + 1 in
      { Op.tag = "max_pool2d"; output;
        spatial = [ Op.axis "b" b; Op.axis "k" k; Op.axis "i" out_h; Op.axis "j" out_w ];
        reduce = [ Op.axis "rx" kernel; Op.axis "ry" kernel ];
        init = Float.neg_infinity;
        combine = Op.Acc_max;
        body =
          Access
            ( input,
              [ v "b"; v "k"; (v "i" *: c stride) +: v "rx"; (v "j" *: c stride) +: v "ry" ] );
      }
  | _ -> invalid_arg "Operators.max_pool2d: expected NCHW shape"
