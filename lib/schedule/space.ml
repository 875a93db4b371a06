let n_spatial_parts = 4
let n_reduce_parts = 3
let n_orders = 6
let unroll_depths = [| 1; 4; 16; 64 |]
let partitions = [| 1; 2; 4; 8 |]
let fuse_choices = [| 1; 2 |]

type t = {
  graph : Ft_ir.Op.graph;
  node : Ft_ir.Op.t;
  target : Target.t;
  spatial_extents : int array;
  reduce_extents : int array;
  has_producers : bool;
  flops : int;
  body_flops : int;
  spatial_points : int;
  reduce_points : int;
  output_bytes : int;
  input_bytes : int;
  producer_bytes : int;
  n_producers : int;
  reads : Footprint.reads list;
}

let compute_node graph =
  match graph.Ft_ir.Op.ops with
  | [] -> invalid_arg "Space.compute_node: empty graph"
  | first :: rest ->
      (* Ties (e.g. zero-FLOP operators like shift) go to the later op,
         so the graph's output node is scheduled, not a producer. *)
      List.fold_left
        (fun best op -> if Ft_ir.Op.flops op >= Ft_ir.Op.flops best then op else best)
        first rest

(* Every term of the performance models that does not depend on the
   config, computed once here instead of on each query. *)
let make graph target =
  let open Ft_ir in
  let node = compute_node graph in
  let producers = Op.producers graph node in
  let bytes_of tensor =
    match Op.tensor_shape graph tensor with
    | Some shape -> List.fold_left ( * ) 1 shape * 4
    | None -> 0
  in
  {
    graph;
    node;
    target;
    spatial_extents = Array.of_list (List.map (fun a -> a.Op.extent) node.spatial);
    reduce_extents = Array.of_list (List.map (fun a -> a.Op.extent) node.reduce);
    has_producers = producers <> [];
    flops = Op.flops node;
    body_flops = Op.body_flops node;
    spatial_points = Op.spatial_points node;
    reduce_points = Op.reduce_points node;
    output_bytes = Op.spatial_points node * 4;
    input_bytes = List.fold_left (fun acc t -> acc + bytes_of t) 0 (Op.tensors_read node);
    producer_bytes =
      List.fold_left (fun acc p -> acc + (Op.spatial_points p * 4 * 2)) 0 producers;
    n_producers = List.length producers;
    reads = Footprint.compile node;
  }

(* Size of the pruned space (divisible splits only) counted in closed
   form; returned as float because real spaces exceed 10^12. *)
let size space =
  let split_count parts extent =
    float_of_int (Ft_util.Mathx.count_factorizations extent parts)
  in
  let spatial =
    Array.fold_left
      (fun acc extent -> acc *. split_count n_spatial_parts extent)
      1. space.spatial_extents
  in
  let reduce =
    Array.fold_left
      (fun acc extent -> acc *. split_count n_reduce_parts extent)
      1. space.reduce_extents
  in
  let extras =
    match space.target with
    | Target.Gpu _ ->
        float_of_int (n_orders * Array.length unroll_depths)
        *. (if space.has_producers then 2. else 1.)
    | Target.Cpu _ ->
        float_of_int
          (n_orders * Array.length unroll_depths * Array.length fuse_choices * 2)
        *. (if space.has_producers then 2. else 1.)
    | Target.Fpga _ ->
        float_of_int (n_orders * Array.length unroll_depths * Array.length partitions)
  in
  spatial *. reduce *. extras

let default_split parts extent =
  let factors = Array.make parts 1 in
  factors.(0) <- extent;
  factors

let default_config space =
  {
    Config.spatial = Array.map (default_split n_spatial_parts) space.spatial_extents;
    reduce = Array.map (default_split n_reduce_parts) space.reduce_extents;
    order_id = 0;
    unroll_id = 0;
    fuse_levels = 1;
    vectorize = false;
    inline = true;
    partition_id = 0;
  }

(* Uniform-ish random ordered factorization via a divisor chain. *)
let random_split rng parts extent =
  let factors = Array.make parts 1 in
  let remaining = ref extent in
  for i = 0 to parts - 2 do
    let divisor = Ft_util.Rng.choose rng (Ft_util.Mathx.divisors !remaining) in
    factors.(i) <- divisor;
    remaining := !remaining / divisor
  done;
  factors.(parts - 1) <- !remaining;
  factors

let random_config rng space =
  {
    Config.spatial = Array.map (random_split rng n_spatial_parts) space.spatial_extents;
    reduce = Array.map (random_split rng n_reduce_parts) space.reduce_extents;
    order_id = Ft_util.Rng.int rng n_orders;
    unroll_id = Ft_util.Rng.int rng (Array.length unroll_depths);
    fuse_levels = Ft_util.Rng.choose_array rng fuse_choices;
    vectorize = Ft_util.Rng.bool rng;
    inline = (if space.has_producers then Ft_util.Rng.bool rng else true);
    partition_id = Ft_util.Rng.int rng (Array.length partitions);
  }

(* Plain recursions, not [Array.for_all] closures: [Cost.evaluate]
   checks every point it prices. *)
let rec factors_ok (fs : int array) extent parts i prod =
  if i = parts then prod = extent
  else fs.(i) >= 1 && factors_ok fs extent parts (i + 1) (prod * fs.(i))

let rec axes_ok (extents : int array) (factors : int array array) parts axis =
  axis = Array.length factors
  || Array.length factors.(axis) = parts
     && factors_ok factors.(axis) extents.(axis) parts 0 1
     && axes_ok extents factors parts (axis + 1)

let splits_ok extents factors parts =
  Array.length factors = Array.length extents && axes_ok extents factors parts 0

let valid space (cfg : Config.t) =
  splits_ok space.spatial_extents cfg.spatial n_spatial_parts
  && splits_ok space.reduce_extents cfg.reduce n_reduce_parts
  && cfg.order_id >= 0 && cfg.order_id < n_orders
  && cfg.unroll_id >= 0
  && cfg.unroll_id < Array.length unroll_depths
  && cfg.fuse_levels >= 1
  && cfg.fuse_levels <= 2
  && cfg.partition_id >= 0
  && cfg.partition_id < Array.length partitions
  && (space.has_producers || cfg.inline)

let unroll_depth cfg = unroll_depths.(cfg.Config.unroll_id)
let partition cfg = partitions.(cfg.Config.partition_id)

(* Feature vector for the Q-network: log-scaled split factors plus the
   discrete knobs, all roughly in [0, 1]. *)
let features _space (cfg : Config.t) =
  let log2f f = log (float_of_int f) /. log 2. /. 12. in
  let factors axes = Array.concat (List.map (Array.map log2f) (Array.to_list axes)) in
  Array.concat
    [
      factors cfg.spatial;
      factors cfg.reduce;
      [|
        float_of_int cfg.order_id /. float_of_int n_orders;
        float_of_int cfg.unroll_id /. float_of_int (Array.length unroll_depths);
        float_of_int (cfg.fuse_levels - 1);
        (if cfg.vectorize then 1. else 0.);
        (if cfg.inline then 1. else 0.);
        float_of_int cfg.partition_id /. float_of_int (Array.length partitions);
      |];
    ]

let feature_dim space =
  Array.length (features space (default_config space))
