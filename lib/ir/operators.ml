open Expr

let sum_op ~tag ~output ~spatial ~reduce body =
  { Op.tag; output; spatial; reduce; init = 0.; combine = Op.Acc_sum; body }

let map_op ~tag ~output ~spatial body =
  { Op.tag; output; spatial; reduce = []; init = 0.; combine = Op.Acc_sum; body }

let conv_out_size ~size ~pad ~dilation ~kernel ~stride =
  ((size + (2 * pad) - (dilation * (kernel - 1)) - 1) / stride) + 1

(* [x] where every condition holds, 0 elsewhere; [x] itself when there
   is no condition. *)
let guarded conds x =
  match conds with
  | [] -> x
  | first :: rest ->
      Select (List.fold_left (fun acc cnd -> And (acc, cnd)) first rest, x, Const 0.)

(* Padding node "I.pad" over the trailing [dims] of a [batch x channels
   x dims] tensor.  With [pad = 0] it degenerates to a copy node (kept
   so mini-graph structure matches the paper's node counts). *)
let pad_node ~tag ~input ~batch ~channels ~dims ~pad =
  let lead_axes = [ Op.axis "b" batch; Op.axis "c" channels ] in
  let dim_axes =
    List.mapi (fun i size -> Op.axis ("p" ^ string_of_int i) (size + (2 * pad))) dims
  in
  let name a = v a.Op.axis_name in
  let access =
    Access (input, List.map name lead_axes @ List.map (fun a -> name a -: c pad) dim_axes)
  in
  let in_range a size = And (Ge (name a, c pad), Lt (name a, c (pad + size))) in
  map_op ~tag ~output:"I.pad" ~spatial:(lead_axes @ dim_axes)
    (guarded (if pad = 0 then [] else List.map2 in_range dim_axes dims) access)

(* Zero-insertion node "I.exp" of a transposed convolution: [stride - 1]
   zeros between neighbours along each of the trailing [dims]. *)
let expand_node ~tag ~batch ~channels ~dims ~stride =
  let lead_axes = [ Op.axis "b" batch; Op.axis "c" channels ] in
  let dim_axes =
    List.mapi
      (fun i size -> Op.axis ("e" ^ string_of_int i) (((size - 1) * stride) + 1))
      dims
  in
  let name a = v a.Op.axis_name in
  let access =
    Access ("I", List.map name lead_axes @ List.map (fun a -> name a /: c stride) dim_axes)
  in
  let aligned a = Eq (name a %: c stride, c 0) in
  map_op ~tag ~output:"I.exp" ~spatial:(lead_axes @ dim_axes)
    (guarded (if stride = 1 then [] else List.map aligned dim_axes) access)

(* The convolution families of Table 3 differ only in these respects;
   the number of spatial dims (1-3) comes from the length of [dims]. *)
type conv_kind =
  | Direct
  | Transposed
      (* expand, pad by [kernel - 1 - pad], then a unit-stride
         convolution with the kernel flipped: three nodes, as the
         paper's Table 3 reports for T1D/T2D/T3D *)
  | Dilated of int
  | Grouped of int
  | Depthwise  (* one filter per input channel, as in every DEP case *)

let at_least least what value =
  if value < least then
    invalid_arg (Printf.sprintf "Operators: %s must be >= %d, got %d" what least value)

(* One generator for every convolution: a padding node (after an
   expansion node when transposed) feeding the convolution node "O". *)
let conv ~kind ~stride ~pad ~batch ~in_channels ~out_channels ~dims ~kernel =
  at_least 1 "stride" stride;
  (match kind with
  | Dilated dilation -> at_least 1 "dilation" dilation
  | Grouped groups ->
      at_least 1 "groups" groups;
      if in_channels mod groups <> 0 || out_channels mod groups <> 0 then
        invalid_arg "Operators.group_conv2d: channels must be divisible by groups"
  | Direct | Transposed | Depthwise -> ());
  at_least 0 "pad" pad;
  let n = List.length dims in
  let tag =
    match kind with
    | Direct -> "conv" ^ string_of_int n ^ "d"
    | Transposed -> "t" ^ string_of_int n ^ "d"
    | Dilated _ -> "dil"
    | Grouped _ -> "grp"
    | Depthwise -> "dep"
  in
  (* output axis, reduce axis and graph-name letter of each dim *)
  let axes =
    match n with
    | 1 -> [ ("i", "rx", "l") ]
    | 2 -> [ ("i", "rx", "h"); ("j", "ry", "w") ]
    | _ -> [ ("d", "rd", "d"); ("i", "rx", "h"); ("j", "ry", "w") ]
  in
  let out_size size =
    match kind with
    | Transposed -> (((size - 1) * stride) - (2 * pad)) + kernel
    | Dilated dilation -> conv_out_size ~size ~pad ~dilation ~kernel ~stride
    | Direct | Grouped _ | Depthwise ->
        conv_out_size ~size ~pad ~dilation:1 ~kernel ~stride
  in
  let out_sizes = List.map out_size dims in
  let stages =
    match kind with
    | Transposed ->
        (* bound first: list literals evaluate right to left, and the
           expansion's axes must be checked before the padding's *)
        let expanded =
          expand_node ~tag:(tag ^ ".expand") ~batch ~channels:in_channels ~dims ~stride
        in
        [ expanded;
          pad_node ~tag:(tag ^ ".pad") ~input:"I.exp" ~batch ~channels:in_channels
            ~dims:(List.map (fun size -> ((size - 1) * stride) + 1) dims)
            ~pad:(kernel - 1 - pad) ]
    | Direct | Dilated _ | Grouped _ | Depthwise ->
        [ pad_node ~tag:(tag ^ ".pad") ~input:"I" ~batch ~channels:in_channels ~dims ~pad ]
  in
  let reduce_vars = List.map (fun (_, r, _) -> v r) axes in
  let tap (o, r, _) =
    match kind with
    | Transposed -> v o +: v r
    | Dilated d -> (v o *: c stride) +: (v r *: c d)
    | Direct | Grouped _ | Depthwise -> (v o *: c stride) +: v r
  in
  let kernels = List.map (fun _ -> kernel) dims in
  (* input channel read, reduced channel extent, weight index and shape *)
  let channel, rc, w_index, w_shape =
    match kind with
    | Direct | Dilated _ ->
        ( v "rc", [ in_channels ],
          v "k" :: v "rc" :: reduce_vars, out_channels :: in_channels :: kernels )
    | Transposed ->
        ( v "rc", [ in_channels ],
          v "rc" :: v "k" :: List.map (fun r -> c (kernel - 1) -: r) reduce_vars,
          in_channels :: out_channels :: kernels )
    | Grouped groups ->
        let ci = in_channels / groups and ko = out_channels / groups in
        ( ((v "k" /: c ko) *: c ci) +: v "rc", [ ci ],
          v "k" :: v "rc" :: reduce_vars, out_channels :: ci :: kernels )
    | Depthwise -> (v "k" /: c 1, [], v "k" :: reduce_vars, out_channels :: kernels)
  in
  let op =
    sum_op ~tag ~output:"O"
      ~spatial:
        (Op.axis "b" batch :: Op.axis "k" out_channels
        :: List.map2 (fun (o, _, _) size -> Op.axis o size) axes out_sizes)
      ~reduce:
        (List.map (Op.axis "rc") rc @ List.map (fun (_, r, _) -> Op.axis r kernel) axes)
      (Mul
         (Access ("I.pad", v "b" :: channel :: List.map tap axes), Access ("W", w_index)))
  in
  let field letter value = letter ^ string_of_int value in
  let name =
    [ tag; field "b" batch; field "c" in_channels ]
    @ (match kind with Depthwise -> [] | _ -> [ field "k" out_channels ])
    @ List.map2 (fun (_, _, l) size -> field l size) axes dims
    @ [ field "k" kernel;
        (match kind with
        | Direct | Transposed -> field "s" stride
        | Dilated d -> field "d" d
        | Grouped groups -> field "g" groups
        | Depthwise -> "m1") ]
  in
  Op.validate_exn
    { graph_name = String.concat "_" name;
      inputs = [ ("I", batch :: in_channels :: dims); ("W", w_shape) ];
      ops = stages @ [ op ];
      output = "O";
    }

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
  conv ~kind:Direct ~stride ~pad ~batch ~in_channels ~out_channels ~dims:[ length ] ~kernel

let conv1d_transposed ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels
    ~length ~kernel () =
  conv ~kind:Transposed ~stride ~pad ~batch ~in_channels ~out_channels ~dims:[ length ]
    ~kernel

let conv2d ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels ~height
    ~width ~kernel () =
  conv ~kind:Direct ~stride ~pad ~batch ~in_channels ~out_channels
    ~dims:[ height; width ] ~kernel

let conv2d_transposed ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels
    ~height ~width ~kernel () =
  conv ~kind:Transposed ~stride ~pad ~batch ~in_channels ~out_channels
    ~dims:[ height; width ] ~kernel

let conv3d ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels ~depth
    ~height ~width ~kernel () =
  conv ~kind:Direct ~stride ~pad ~batch ~in_channels ~out_channels
    ~dims:[ depth; height; width ] ~kernel

let conv3d_transposed ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels
    ~depth ~height ~width ~kernel () =
  conv ~kind:Transposed ~stride ~pad ~batch ~in_channels ~out_channels
    ~dims:[ depth; height; width ] ~kernel

let group_conv2d ?(stride = 1) ?(pad = 0) ~batch ~in_channels ~out_channels
    ~height ~width ~kernel ~groups () =
  conv ~kind:(Grouped groups) ~stride ~pad ~batch ~in_channels ~out_channels
    ~dims:[ height; width ] ~kernel

let depthwise_conv2d ?(stride = 1) ?(pad = 0) ~batch ~channels ~height ~width ~kernel
    () =
  conv ~kind:Depthwise ~stride ~pad ~batch ~in_channels:channels ~out_channels:channels
    ~dims:[ height; width ] ~kernel

let dilated_conv2d ?(stride = 1) ?(pad = 0) ?(dilation = 2) ~batch ~in_channels
    ~out_channels ~height ~width ~kernel () =
  conv ~kind:(Dilated dilation) ~stride ~pad ~batch ~in_channels ~out_channels
    ~dims:[ height; width ] ~kernel

(* Block-circulant matrix multiply (§6.4): within each (j-block,
   t-block) pair the weight matrix is circulant, so one vector of
   [block] parameters represents a [block x block] matrix. *)
let bcm ~m ~n ~k ~block =
  at_least 1 "block" block;
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
    pad_node ~tag:"shift.pad" ~input:"I" ~batch ~channels ~dims:[ height; width ] ~pad:1
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
