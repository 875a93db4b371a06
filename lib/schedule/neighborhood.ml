type move =
  | Factor_shift of { kind : [ `Spatial | `Reduce ]; axis : int; src : int; dst : int }
  | Order_step of int
  | Unroll_step of int
  | Fuse_step of int
  | Vectorize_toggle
  | Inline_toggle
  | Partition_step of int

(* The full direction set of a space, in a stable order (the Q-network
   output layer is indexed by position in this list). Axes of extent 1
   have no factor moves and are omitted. *)
let directions (space : Space.t) =
  let factor_moves kind extents parts =
    let levels = List.init parts Fun.id in
    List.concat
      (List.init (Array.length extents) (fun axis ->
           if extents.(axis) <= 1 then []
           else
             List.concat_map
               (fun src ->
                 List.filter_map
                   (fun dst ->
                     if src = dst then None else Some (Factor_shift { kind; axis; src; dst }))
                   levels)
               levels))
  in
  factor_moves `Spatial space.spatial_extents Space.n_spatial_parts
  @ factor_moves `Reduce space.reduce_extents Space.n_reduce_parts
  @ [ Order_step 1; Order_step (-1); Unroll_step 1; Unroll_step (-1) ]
  @ (match space.target with
    | Target.Gpu _ -> []
    | Target.Cpu _ -> [ Fuse_step 1; Fuse_step (-1); Vectorize_toggle ]
    | Target.Fpga _ -> [ Partition_step 1; Partition_step (-1) ])
  @ if space.has_producers then [ Inline_toggle ] else []

(* Apply a move; [None] when it would leave the space (the paper's
   exploration never revisits invalid neighbours).  The result shares
   every factor array the move leaves unchanged with [cfg]. *)
let apply (space : Space.t) (cfg : Config.t) move =
  match move with
  | Factor_shift { kind; axis; src; dst } ->
      let factors =
        match kind with `Spatial -> cfg.spatial | `Reduce -> cfg.reduce
      in
      if axis >= Array.length factors then None
      else
        let parts = factors.(axis) in
        if src >= Array.length parts || dst >= Array.length parts then None
        else (
          match Ft_util.Mathx.smallest_prime_factor parts.(src) with
          | None -> None
          | Some p ->
              let parts = Array.copy parts in
              parts.(src) <- parts.(src) / p;
              parts.(dst) <- parts.(dst) * p;
              let factors = Array.copy factors in
              factors.(axis) <- parts;
              Some
                (match kind with
                | `Spatial -> { cfg with spatial = factors }
                | `Reduce -> { cfg with reduce = factors }))
  | Order_step d ->
      let order_id = cfg.order_id + d in
      if order_id < 0 || order_id >= Space.n_orders then None
      else Some { cfg with order_id }
  | Unroll_step d ->
      let unroll_id = cfg.unroll_id + d in
      if unroll_id < 0 || unroll_id >= Array.length Space.unroll_depths then None
      else Some { cfg with unroll_id }
  | Fuse_step d ->
      let fuse_levels = cfg.fuse_levels + d in
      if fuse_levels < 1 || fuse_levels > 2 then None else Some { cfg with fuse_levels }
  | Vectorize_toggle -> Some { cfg with vectorize = not cfg.vectorize }
  | Inline_toggle ->
      if space.has_producers then Some { cfg with inline = not cfg.inline } else None
  | Partition_step d ->
      let partition_id = cfg.partition_id + d in
      if partition_id < 0 || partition_id >= Array.length Space.partitions then None
      else Some { cfg with partition_id }

let neighbors space cfg =
  List.filter_map
    (fun move ->
      match apply space cfg move with
      | Some next -> Some (move, next)
      | None -> None)
    (directions space)
