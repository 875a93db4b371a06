let series ?(digits = 1) ~title ~x_label ~y_label points_by_name =
  (* Renders multiple (x, y) series as aligned columns: one row per x,
     one column per series — sufficient for "performance vs time"
     figures in a terminal. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s  [%s vs %s]\n" title y_label x_label);
  let xs =
    List.sort_uniq compare
      (List.concat_map (fun (_, pts) -> List.map fst pts) points_by_name)
  in
  let header = x_label :: List.map fst points_by_name in
  let value_at pts x =
    (* Step interpolation: the latest point at or before x. *)
    let before = List.filter (fun (px, _) -> px <= x) pts in
    match List.rev before with
    | (_, y) :: _ -> Printf.sprintf "%.*f" digits y
    | [] -> "-"
  in
  let rows =
    List.map
      (fun x ->
        Printf.sprintf "%.1f" x
        :: List.map (fun (_, pts) -> value_at pts x) points_by_name)
      xs
  in
  Buffer.add_string buf (Table.render ~header rows);
  Buffer.add_char buf '\n';
  Buffer.contents buf
