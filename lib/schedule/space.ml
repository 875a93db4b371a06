let n_spatial_parts = 4
let n_reduce_parts = 3
let n_orders = 6
let unroll_depths = [| 1; 4; 16; 64 |]
let partitions = [| 1; 2; 4; 8 |]

type split_domain = Divisible | One_of of int array list

type domains = {
  spatial_splits : split_domain array;
  reduce_splits : split_domain array;
  order_ids : int array;
  unroll_ids : int array;
  fuse_levels : int array;
  vectorize : bool array;
  inline : bool array;
  partition_ids : int array;
}

type t = {
  graph : Ft_ir.Op.graph;
  node : Ft_ir.Op.t;
  target : Target.t;
  spatial_extents : int array;
  reduce_extents : int array;
  flops : int;
  body_flops : int;
  spatial_points : int;
  reduce_points : int;
  output_bytes : int;
  input_bytes : int;
  producer_bytes : int;
  n_producers : int;
  reads : Footprint.reads list;
  domains : domains;
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
    domains =
      {
        spatial_splits = Array.make (List.length node.spatial) Divisible;
        reduce_splits = Array.make (List.length node.reduce) Divisible;
        order_ids = [| 0; 1; 2; 3; 4; 5 |];
        unroll_ids = [| 0; 1; 2; 3 |];
        fuse_levels = [| 1; 2 |];
        vectorize = [| false; true |];
        inline = (if producers <> [] then [| false; true |] else [| true |]);
        partition_ids = [| 0; 1; 2; 3 |];
      };
  }

(* Closed-form size, a float as real spaces exceed 10^12; a GPU point's
   fuse, vectorize and partition knobs are drawn but not counted. *)
let size space =
  let d = space.domains in
  let count parts extent = function
    | Divisible -> Ft_util.Mathx.count_factorizations extent parts
    | One_of tuples -> List.length tuples
  in
  let splits parts extents doms =
    Array.fold_left ( *. ) 1.
      (Array.map2 (fun e dom -> float_of_int (count parts e dom)) extents doms)
  in
  let n = Array.length in
  let extras =
    n d.order_ids * n d.unroll_ids
    * (match space.target with
      | Target.Gpu _ -> n d.inline
      | Target.Cpu _ -> n d.fuse_levels * n d.vectorize * n d.inline
      | Target.Fpga _ -> n d.partition_ids)
  in
  splits n_spatial_parts space.spatial_extents d.spatial_splits
  *. splits n_reduce_parts space.reduce_extents d.reduce_splits
  *. float_of_int extras

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

(* A tuple list takes one [Rng.choose] even when it holds one tuple, a
   one-value knob no draw; [choose_array] draws as [Rng.int] would. *)
let draw_split rng parts extent = function
  | Divisible -> random_split rng parts extent
  | One_of tuples -> Ft_util.Rng.choose rng tuples

let draw rng vs = if Array.length vs = 1 then vs.(0) else Ft_util.Rng.choose_array rng vs
let draw_bool rng vs = if Array.length vs = 1 then vs.(0) else Ft_util.Rng.bool rng

let random_config rng space =
  let d = space.domains in
  {
    Config.spatial =
      Array.map2 (draw_split rng n_spatial_parts) space.spatial_extents d.spatial_splits;
    reduce = Array.map2 (draw_split rng n_reduce_parts) space.reduce_extents d.reduce_splits;
    order_id = draw rng d.order_ids;
    unroll_id = draw rng d.unroll_ids;
    fuse_levels = draw rng d.fuse_levels;
    vectorize = draw_bool rng d.vectorize;
    inline = draw_bool rng d.inline;
    partition_id = draw rng d.partition_ids;
  }

let redraw rng space (cfg : Config.t) which =
  let d = space.domains and n_spatial = Array.length cfg.spatial in
  let set factors axis split = Array.mapi (fun i f -> if i = axis then split else f) factors in
  if which < n_spatial then
    let split = draw_split rng n_spatial_parts space.spatial_extents.(which) in
    { cfg with spatial = set cfg.spatial which (split d.spatial_splits.(which)) }
  else if which < n_spatial + Array.length cfg.reduce then
    let axis = which - n_spatial in
    let split = draw_split rng n_reduce_parts space.reduce_extents.(axis) in
    { cfg with reduce = set cfg.reduce axis (split d.reduce_splits.(axis)) }
  else { cfg with unroll_id = draw rng d.unroll_ids }

(* Plain recursions, not [Array.for_all] closures: [Cost.evaluate]
   checks every point it prices. *)
let rec factors_ok (fs : int array) extent parts i prod =
  if i = parts then prod = extent
  else fs.(i) >= 1 && factors_ok fs extent parts (i + 1) (prod * fs.(i))

let[@inline] split_allowed dom (factors : int array) =
  match dom with Divisible -> true | One_of tuples -> List.mem factors tuples

let rec axes_ok (extents : int array) doms (factors : int array array) parts axis =
  axis = Array.length factors
  || Array.length factors.(axis) = parts
     && factors_ok factors.(axis) extents.(axis) parts 0 1
     && split_allowed doms.(axis) factors.(axis)
     && axes_ok extents doms factors parts (axis + 1)

let splits_ok extents doms factors parts =
  Array.length factors = Array.length extents && axes_ok extents doms factors parts 0

let rec mem_from (values : int array) v i =
  i < Array.length values && (values.(i) = v || mem_from values v (i + 1))

(* A contiguous sorted domain (every full one) answers from one index. *)
let[@inline] mem (values : int array) v =
  let i = v - values.(0) in
  (i >= 0 && i < Array.length values && values.(i) = v) || mem_from values v 0

let[@inline] mem_bool (values : bool array) v = Array.length values > 1 || values.(0) = v

let valid space (cfg : Config.t) =
  let d = space.domains in
  splits_ok space.spatial_extents d.spatial_splits cfg.spatial n_spatial_parts
  && splits_ok space.reduce_extents d.reduce_splits cfg.reduce n_reduce_parts
  && mem d.order_ids cfg.order_id
  && mem d.unroll_ids cfg.unroll_id
  && mem d.fuse_levels cfg.fuse_levels
  && mem_bool d.vectorize cfg.vectorize
  && mem_bool d.inline cfg.inline
  && mem d.partition_ids cfg.partition_id

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
