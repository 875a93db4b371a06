type t =
  | Split of { axis : string; factors : int list }
  | Reorder of { order : string list }
  | Fuse of { axes : string list; into : string }
  | Unroll of { axis : string; depth : int }
  | Vectorize of { axis : string }
  | Parallel of { axis : string }
  | Bind of { axis : string; level : string }
  | Cache of { tensor : string; scope : string }
  | Inline of { node : string }
  | Buffer of { tensor : string; elems : int }
  | Pipeline of { stages : int }
  | Partition of { banks : int }

let pp fmt = function
  | Split { axis; factors } ->
      Format.fprintf fmt "split(%s -> [%s])" axis
        (String.concat ", " (List.map string_of_int factors))
  | Reorder { order } -> Format.fprintf fmt "reorder(%s)" (String.concat ", " order)
  | Fuse { axes; into } ->
      Format.fprintf fmt "fuse([%s] -> %s)" (String.concat ", " axes) into
  | Unroll { axis; depth } -> Format.fprintf fmt "unroll(%s, %d)" axis depth
  | Vectorize { axis } -> Format.fprintf fmt "vectorize(%s)" axis
  | Parallel { axis } -> Format.fprintf fmt "parallel(%s)" axis
  | Bind { axis; level } -> Format.fprintf fmt "bind(%s, %s)" axis level
  | Cache { tensor; scope } -> Format.fprintf fmt "cache(%s, %s)" tensor scope
  | Inline { node } -> Format.fprintf fmt "inline(%s)" node
  | Buffer { tensor; elems } -> Format.fprintf fmt "buffer(%s, %d)" tensor elems
  | Pipeline { stages } -> Format.fprintf fmt "pipeline(%d)" stages
  | Partition { banks } -> Format.fprintf fmt "partition(%d)" banks

let to_string prim = Format.asprintf "%a" pp prim

let sub_axis name level = Printf.sprintf "%s.%d" name level

let split_prims axes factors =
  List.mapi
    (fun i (a : Ft_ir.Op.axis) ->
      Split { axis = a.axis_name; factors = Array.to_list factors.(i) })
    axes

let group_names axes level =
  List.map (fun (a : Ft_ir.Op.axis) -> sub_axis a.axis_name level) axes

(* Serial loop order below the parallel levels: permutes the three
   groups selected by the order template, then reduce-inner, then
   spatial-inner. *)
let serial_order (space : Space.t) (cfg : Config.t) ~spatial_mid_level
    ~spatial_inner_level =
  let node = space.node in
  let groups =
    [| group_names node.spatial spatial_mid_level;
       group_names node.reduce 0;
       group_names node.reduce 1 |]
  in
  let perm = Config.order_perm cfg.order_id in
  List.concat_map (fun g -> groups.(g)) (Array.to_list perm)
  @ group_names node.reduce 2
  @ group_names node.spatial spatial_inner_level

let inline_prims (space : Space.t) (cfg : Config.t) =
  if cfg.inline then
    List.map
      (fun (producer : Ft_ir.Op.t) -> Inline { node = producer.tag })
      (Ft_ir.Op.producers space.graph space.node)
  else []

let of_config (space : Space.t) (cfg : Config.t) =
  let node = space.node in
  let splits = split_prims node.spatial cfg.spatial @ split_prims node.reduce cfg.reduce in
  let unroll_depth = Space.unroll_depth cfg in
  match space.target with
  | Target.Gpu _ ->
      let binds =
        List.map
          (fun (a : Ft_ir.Op.axis) ->
            Bind { axis = sub_axis a.axis_name 0; level = "blockIdx" })
          node.spatial
        @ List.map
            (fun (a : Ft_ir.Op.axis) ->
              Bind { axis = sub_axis a.axis_name 2; level = "threadIdx" })
            node.spatial
      in
      let caches =
        List.map
          (fun tensor -> Cache { tensor; scope = "shared" })
          (Ft_ir.Op.tensors_read node)
      in
      splits
      @ [ Reorder
            { order =
                group_names node.spatial 0 @ group_names node.spatial 2
                @ serial_order space cfg ~spatial_mid_level:1 ~spatial_inner_level:3 } ]
      @ binds @ caches
      @ [ Unroll { axis = sub_axis "inner" 3; depth = unroll_depth } ]
      @ inline_prims space cfg
  | Target.Cpu _ ->
      let fused_levels = List.init cfg.fuse_levels Fun.id in
      let fused_axes =
        List.concat_map (fun level -> group_names node.spatial level) fused_levels
      in
      let vec =
        if cfg.vectorize then
          match List.rev node.spatial with
          | [] -> []
          | last :: _ -> [ Vectorize { axis = sub_axis last.axis_name 3 } ]
        else []
      in
      splits
      @ [ Fuse { axes = fused_axes; into = "outer" };
          Parallel { axis = "outer" };
          Reorder
            { order = serial_order space cfg ~spatial_mid_level:2 ~spatial_inner_level:3 } ]
      @ vec
      @ [ Unroll { axis = sub_axis "inner" 3; depth = unroll_depth } ]
      @ inline_prims space cfg
  | Target.Fpga _ ->
      let pe = Config.product_level cfg.spatial 2 in
      let tile =
        Array.fold_left (fun acc parts -> acc * parts.(2) * parts.(3)) 1 cfg.spatial
      in
      splits
      @ [ Buffer { tensor = "inputs"; elems = tile };
          Pipeline { stages = 3 };
          Partition { banks = Space.partition cfg };
          Parallel { axis = Printf.sprintf "pe(%d)" pe };
          Unroll { axis = sub_axis "inner" 3; depth = unroll_depth } ]
