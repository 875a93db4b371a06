(* Cells are left-aligned, padded to their column's widest cell. *)
let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let render ~header rows =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then invalid_arg "Table.render: ragged row")
    rows;
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure header;
  List.iter measure rows;
  let line row =
    String.concat "  " (List.mapi (fun i cell -> pad widths.(i) cell) row)
  in
  let sep =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (line header :: sep :: List.map line rows)

let print ~header rows = print_endline (render ~header rows)

let fmt_float ?(digits = 2) x =
  if Float.is_nan x then "n/a" else Printf.sprintf "%.*f" digits x

let fmt_ratio x = if Float.is_nan x then "n/a" else Printf.sprintf "%.2fx" x
