(** Sub-graph fusion for the DNN case study (§6.6). *)

(** Extend a convolution mini-graph with bias-add and ReLU epilogue
    nodes, producing the fused operator fed to the optimizer.  Raises
    [Invalid_argument] naming the layer unless its output is NCHW
    (rank 4). *)
val with_bias_relu : Ft_ir.Op.graph -> Ft_ir.Op.graph
