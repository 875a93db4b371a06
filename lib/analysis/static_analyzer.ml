type node_info = {
  tag : string;
  output : string;
  num_spatial : int;
  num_reduce : int;
  spatial_trip_counts : int list;
  reduce_trip_counts : int list;
  loop_order : string list;
  num_inputs : int;
  num_outputs : int;
  num_consumers : int;
  flops : int;
}

type graph_info = {
  graph_name : string;
  num_nodes : int;
  nodes : node_info list;
  total_spatial : int;
  total_reduce : int;
  total_flops : int;
}

let analyze_node graph (op : Ft_ir.Op.t) =
  let spatial_trip_counts = List.map (fun a -> a.Ft_ir.Op.extent) op.spatial in
  let reduce_trip_counts = List.map (fun a -> a.Ft_ir.Op.extent) op.reduce in
  {
    tag = op.tag;
    output = op.output;
    num_spatial = List.length op.spatial;
    num_reduce = List.length op.reduce;
    spatial_trip_counts;
    reduce_trip_counts;
    loop_order =
      List.map (fun a -> a.Ft_ir.Op.axis_name) (op.spatial @ op.reduce);
    num_inputs = List.length (Ft_ir.Op.tensors_read op);
    num_outputs = 1;
    num_consumers = List.length (Ft_ir.Op.consumers graph op.output);
    flops = Ft_ir.Op.flops op;
  }

let analyze graph =
  let nodes = List.map (analyze_node graph) graph.Ft_ir.Op.ops in
  {
    graph_name = graph.graph_name;
    num_nodes = List.length nodes;
    nodes;
    total_spatial = List.fold_left (fun acc n -> acc + n.num_spatial) 0 nodes;
    total_reduce =
      (* Reduce loops are counted on the compute nodes only; pure
         data-movement producers contribute none, matching Table 3. *)
      List.fold_left (fun acc n -> max acc n.num_reduce) 0 nodes;
    total_flops = List.fold_left (fun acc n -> acc + n.flops) 0 nodes;
  }

let pp_node fmt n =
  Format.fprintf fmt "%s: #sl=%d #rl=%d stc=[%s] rtc=[%s] #in=%d #out=%d #cs=%d"
    n.tag n.num_spatial n.num_reduce
    (String.concat "," (List.map string_of_int n.spatial_trip_counts))
    (String.concat "," (List.map string_of_int n.reduce_trip_counts))
    n.num_inputs n.num_outputs n.num_consumers

let pp fmt info =
  Format.fprintf fmt "@[<v 2>%s: #node=%d total #sl/#rl=%d/%d flops=%d@ "
    info.graph_name info.num_nodes info.total_spatial info.total_reduce
    info.total_flops;
  List.iter (fun n -> Format.fprintf fmt "%a@ " pp_node n) info.nodes;
  Format.fprintf fmt "@]"
