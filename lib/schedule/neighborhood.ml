type move =
  | Factor_shift of { kind : [ `Spatial | `Reduce ]; axis : int; src : int; dst : int }
  | Order_step of int
  | Unroll_step of int
  | Fuse_step of int
  | Vectorize_toggle
  | Inline_toggle
  | Partition_step of int

(* The direction set of a space, in a stable order (the Q-network
   output layer is indexed by position in this list).  Axes of extent 1
   have no factor moves, and a pinned knob has no steps. *)
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
  let d = space.domains in
  let free values moves = if Array.length values > 1 then moves else [] in
  factor_moves `Spatial space.spatial_extents Space.n_spatial_parts
  @ factor_moves `Reduce space.reduce_extents Space.n_reduce_parts
  @ free d.order_ids [ Order_step 1; Order_step (-1) ]
  @ free d.unroll_ids [ Unroll_step 1; Unroll_step (-1) ]
  @ (match space.target with
    | Target.Gpu _ -> []
    | Target.Cpu _ ->
        free d.fuse_levels [ Fuse_step 1; Fuse_step (-1) ]
        @ free d.vectorize [ Vectorize_toggle ]
    | Target.Fpga _ -> free d.partition_ids [ Partition_step 1; Partition_step (-1) ])
  @ free d.inline [ Inline_toggle ]

(* Apply a move; [None] when it would leave the space or its domains
   (the paper's exploration never revisits invalid neighbours).  The
   result shares every factor array the move leaves unchanged with [cfg]. *)
let apply (space : Space.t) (cfg : Config.t) move =
  let d = space.domains in
  match move with
  | Factor_shift { kind; axis; src; dst } ->
      let factors = match kind with `Spatial -> cfg.spatial | `Reduce -> cfg.reduce in
      let doms = match kind with `Spatial -> d.spatial_splits | `Reduce -> d.reduce_splits in
      if axis >= Array.length factors || axis >= Array.length doms then None
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
              if not (Space.split_allowed doms.(axis) parts) then None
              else
                let factors = Array.copy factors in
                factors.(axis) <- parts;
                Some
                  (match kind with
                  | `Spatial -> { cfg with spatial = factors }
                  | `Reduce -> { cfg with reduce = factors }))
  | Order_step step ->
      let order_id = cfg.order_id + step in
      if Space.mem d.order_ids order_id then Some { cfg with order_id } else None
  | Unroll_step step ->
      let unroll_id = cfg.unroll_id + step in
      if Space.mem d.unroll_ids unroll_id then Some { cfg with unroll_id } else None
  | Fuse_step step ->
      let fuse_levels = cfg.fuse_levels + step in
      if Space.mem d.fuse_levels fuse_levels then Some { cfg with fuse_levels }
      else None
  | Vectorize_toggle ->
      if Array.length d.vectorize > 1 then Some { cfg with vectorize = not cfg.vectorize }
      else None
  | Inline_toggle ->
      if Array.length d.inline > 1 then Some { cfg with inline = not cfg.inline } else None
  | Partition_step step ->
      let partition_id = cfg.partition_id + step in
      if Space.mem d.partition_ids partition_id then Some { cfg with partition_id }
      else None

let neighbors space cfg =
  List.filter_map
    (fun move ->
      match apply space cfg move with
      | Some next -> Some (move, next)
      | None -> None)
    (directions space)
