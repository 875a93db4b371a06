(** Builders for every tensor computation evaluated in the paper
    (Table 1) plus the two new operators of §6.4 (block-circulant
    matrix multiply and shift) and the element-wise helpers needed to
    compose DNN layers (§6.6).

    Graph structure follows the paper: convolutions carry an explicit
    padding producer node, transposed convolutions additionally carry a
    zero-insertion expansion node, so mini-graph node counts match
    Table 3 (2 nodes for C1D/C2D/C3D, 3 for T1D/T2D/T3D). *)

val gemv : m:int -> k:int -> Op.graph
val gemm : m:int -> n:int -> k:int -> Op.graph
val bilinear : m:int -> n:int -> k:int -> l:int -> Op.graph

val conv1d :
  ?stride:int -> ?pad:int ->
  batch:int -> in_channels:int -> out_channels:int -> length:int -> kernel:int ->
  unit -> Op.graph

val conv1d_transposed :
  ?stride:int -> ?pad:int ->
  batch:int -> in_channels:int -> out_channels:int -> length:int -> kernel:int ->
  unit -> Op.graph

val conv2d :
  ?stride:int -> ?pad:int ->
  batch:int -> in_channels:int -> out_channels:int -> height:int -> width:int ->
  kernel:int -> unit -> Op.graph

val conv2d_transposed :
  ?stride:int -> ?pad:int ->
  batch:int -> in_channels:int -> out_channels:int -> height:int -> width:int ->
  kernel:int -> unit -> Op.graph

val conv3d :
  ?stride:int -> ?pad:int ->
  batch:int -> in_channels:int -> out_channels:int -> depth:int -> height:int ->
  width:int -> kernel:int -> unit -> Op.graph

val conv3d_transposed :
  ?stride:int -> ?pad:int ->
  batch:int -> in_channels:int -> out_channels:int -> depth:int -> height:int ->
  width:int -> kernel:int -> unit -> Op.graph

val group_conv2d :
  ?stride:int -> ?pad:int ->
  batch:int -> in_channels:int -> out_channels:int -> height:int -> width:int ->
  kernel:int -> groups:int -> unit -> Op.graph

val depthwise_conv2d :
  ?stride:int -> ?pad:int ->
  batch:int -> channels:int -> height:int -> width:int -> kernel:int ->
  unit -> Op.graph

val dilated_conv2d :
  ?stride:int -> ?pad:int -> ?dilation:int ->
  batch:int -> in_channels:int -> out_channels:int -> height:int -> width:int ->
  kernel:int -> unit -> Op.graph

(** Block-circulant matrix multiply: [A : m*n], weights compressed to
    one length-[block] vector per block pair. Requires [block >= 1]
    dividing [n] and [k]; raises [Invalid_argument] otherwise. *)
val bcm : m:int -> n:int -> k:int -> block:int -> Op.graph

(** Zero-FLOP shift operator: each channel moves by one of the nine
    3x3 offsets selected by channel index. *)
val shift : batch:int -> channels:int -> height:int -> width:int -> Op.graph

(** {2 Element-wise nodes for DNN composition} *)

val bias_add : input:string -> bias:string -> output:string -> shape:int list -> Op.t
val relu : input:string -> output:string -> shape:int list -> Op.t
