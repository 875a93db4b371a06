open Ft_ir

(* Sub-graph fusion (§6.6): a convolution followed by element-wise
   epilogue nodes (bias add, ReLU) is fed to FlexTensor as one fused
   operator.  Structurally we extend the conv mini-graph with the
   epilogue nodes; for performance accounting the fused epilogue is
   free (it rides on the conv kernel's output write). *)

let with_bias_relu graph =
  let conv = Op.output_op graph in
  let shape = Op.out_shape conv in
  (* The bias broadcasts over channels = dimension 1 of an NCHW
     output, the only shape [Operators.bias_add] and [relu] accept;
     reject anything else here, where the layer can be named. *)
  let channels =
    match shape with
    | [ _; channels; _; _ ] -> channels
    | _ ->
        invalid_arg
          (Printf.sprintf
             "Fusion.with_bias_relu: layer %s output %s has rank %d, but \
              bias+ReLU fusion needs an NCHW output (rank 4)"
             graph.Op.graph_name conv.Op.output (List.length shape))
  in
  let biased = Operators.bias_add ~input:graph.Op.output ~bias:"bias" ~output:"O.bias" ~shape in
  let activated = Operators.relu ~input:"O.bias" ~output:"O.relu" ~shape in
  Op.validate_exn
    {
      graph_name = graph.graph_name ^ "_fused";
      inputs = graph.inputs @ [ ("bias", [ channels ]) ];
      ops = graph.ops @ [ biased; activated ];
      output = "O.relu";
    }
