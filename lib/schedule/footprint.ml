open Ft_ir

(* Interval-width abstract interpretation of index expressions: given
   the tile width of each loop axis, [span] bounds how many distinct
   values an index expression takes within one tile — which is exactly
   the per-tile memory footprint along that tensor dimension.  Index
   expressions are compiled once per space: variables become the slot
   of their loop axis, constant operands are resolved. *)
type span =
  | Fixed
  | Axis of int
  | Sum of span * span
  | Scale of int * span
  | Prod of span * span
  | Div of int * span
  | Mod of int * span

type reads = { tensor : string; accesses : span list list }

let index axes expr =
  let slot name =
    match List.find_index (fun (a : Op.axis) -> String.equal a.axis_name name) axes with
    | Some i -> Axis i
    | None -> Fixed
  in
  let const_of = function Expr.Iconst n -> Some n | _ -> None in
  let rec compile = function
    | Expr.Ivar name -> slot name
    | Expr.Iconst _ -> Fixed
    | Expr.Iadd (a, b) | Expr.Isub (a, b) -> Sum (compile a, compile b)
    | Expr.Imul (a, b) -> (
        match (const_of a, const_of b) with
        | Some ca, _ -> Scale (abs ca, compile b)
        | _, Some cb -> Scale (abs cb, compile a)
        | None, None -> Prod (compile a, compile b))
    | Expr.Idiv (a, b) -> (
        match const_of b with Some cb when cb > 0 -> Div (cb, compile a) | _ -> compile a)
    | Expr.Imod (a, b) -> (
        match const_of b with Some cb when cb > 0 -> Mod (cb, compile a) | _ -> compile a)
  in
  compile expr

let rec span widths = function
  | Fixed -> 1
  | Axis i -> widths.(i)
  | Sum (a, b) -> span widths a + span widths b - 1
  | Scale (c, a) -> (c * (span widths a - 1)) + 1
  | Prod (a, b) -> span widths a * span widths b
  | Div (c, a) -> ((span widths a - 1) / c) + 1
  | Mod (c, a) -> min (span widths a) c

let compile (op : Op.t) =
  let axes = op.spatial @ op.reduce and accesses = Expr.accesses op.body in
  List.map
    (fun tensor ->
      let of_tensor (t, indices) =
        if String.equal t tensor then Some (List.map (index axes) indices) else None
      in
      { tensor; accesses = List.filter_map of_tensor accesses })
    (Op.tensors_read op)

(* Multiple accesses to one tensor keep the largest footprint (they
   overlap in practice). *)
let tensor_elems widths r =
  List.fold_left
    (fun acc access ->
      max acc (List.fold_left (fun acc s -> acc * span widths s) 1 access))
    0 r.accesses

let total widths reads = List.fold_left (fun acc r -> acc + tensor_elems widths r) 0 reads

let widths (cfg : Config.t) ~spatial_levels ~reduce_levels =
  let width levels parts = List.fold_left (fun acc level -> acc * parts.(level)) 1 levels in
  Array.append
    (Array.map (width spatial_levels) cfg.spatial)
    (Array.map (width reduce_levels) cfg.reduce)
