open Ft_schedule

(* Closest divisible [parts]-way factorization of [extent] to [old] in
   log space.  Enumeration is fine here: transfer runs once per
   search, and factorization counts for realistic extents are in the
   hundreds. *)
let refit_split ~parts ~extent old =
  if Array.length old <> parts then None
  else if Array.fold_left ( * ) 1 old = extent then Some (Array.copy old)
  else begin
    let target = Array.map (fun f -> log (float_of_int (max 1 f))) old in
    let cost factors =
      snd
        (List.fold_left
           (fun (i, acc) f ->
             let d = log (float_of_int f) -. target.(i) in
             (i + 1, acc +. (d *. d)))
           (0, 0.) factors)
    in
    let best =
      List.fold_left
        (fun acc factors ->
          let c = cost factors in
          match acc with
          | Some (best_c, _) when best_c <= c -> acc
          | Some _ | None -> Some (c, factors))
        None
        (Ft_util.Mathx.factorizations extent parts)
    in
    Option.map (fun (_, factors) -> Array.of_list factors) best
  end

let refit space (cfg : Config.t) =
  let fit_axes extents parts factors =
    if Array.length factors <> Array.length extents then None
    else
      let out =
        Array.map2
          (fun extent old -> refit_split ~parts ~extent old)
          extents factors
      in
      if Array.for_all Option.is_some out then Some (Array.map Option.get out)
      else None
  in
  match
    ( fit_axes space.Space.spatial_extents Space.n_spatial_parts cfg.Config.spatial,
      fit_axes space.Space.reduce_extents Space.n_reduce_parts cfg.Config.reduce )
  with
  | Some spatial, Some reduce ->
      let clamp = Ft_util.Mathx.clamp in
      let refitted =
        {
          Config.spatial;
          reduce;
          order_id = clamp 0 (Space.n_orders - 1) cfg.order_id;
          unroll_id = clamp 0 (Array.length Space.unroll_depths - 1) cfg.unroll_id;
          fuse_levels = clamp 1 2 cfg.fuse_levels;
          vectorize = cfg.vectorize;
          inline = cfg.inline || space.n_producers = 0;
          partition_id = clamp 0 (Array.length Space.partitions - 1) cfg.partition_id;
        }
      in
      if Space.valid space refitted then Some refitted else None
  | _ -> None

let seeds ?method_name ?(limit = 3) store space =
  let key = Record.key_of_space space in
  let of_record (r : Record.t) =
    match Config_io.of_string r.config with
    | Error _ -> None
    | Ok cfg -> refit space cfg
  in
  (* Dedup by structural equality, preserving exact-first order. *)
  let seen = Config.Tbl.create 8 in
  List.filter
    (fun cfg ->
      let fresh = not (Config.Tbl.mem seen cfg) in
      Config.Tbl.replace seen cfg ();
      fresh)
    (Option.to_list (Option.bind (Store.best_exact ?method_name store key) of_record)
    @ List.filter_map of_record (Store.nearest ?method_name ~limit store key))
