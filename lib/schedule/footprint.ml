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
  | Mod (c, a) ->
      let w = span widths a in
      if w <= c then w else c

let compile (op : Op.t) =
  let axes = op.spatial @ op.reduce and accesses = Expr.accesses op.body in
  List.map
    (fun tensor ->
      let of_tensor (t, indices) =
        if String.equal t tensor then Some (List.map (index axes) indices) else None
      in
      { tensor; accesses = List.filter_map of_tensor accesses })
    (Op.tensors_read op)

(* Recursions over the compiled reads, not folds: no closure per
   query.  An access's footprint is the product over its dimensions;
   multiple accesses to one tensor keep the largest (they overlap in
   practice); tensors add up. *)
let rec access_elems widths acc = function
  | [] -> acc
  | s :: rest -> access_elems widths (acc * span widths s) rest

let rec tensor_elems widths acc = function
  | [] -> acc
  | access :: rest ->
      let elems = access_elems widths 1 access in
      tensor_elems widths (if acc >= elems then acc else elems) rest

let rec reads_elems widths acc = function
  | [] -> acc
  | r :: rest -> reads_elems widths (acc + tensor_elems widths 0 r.accesses) rest

let total widths reads = reads_elems widths 0 reads

let rec level_product (parts : int array) acc = function
  | [] -> acc
  | level :: rest -> level_product parts (acc * parts.(level)) rest

(* One array, spatial slots then reduce slots. *)
let widths (cfg : Config.t) ~spatial_levels ~reduce_levels =
  let n_spatial = Array.length cfg.spatial in
  let widths = Array.make (n_spatial + Array.length cfg.reduce) 1 in
  for i = 0 to n_spatial - 1 do
    widths.(i) <- level_product cfg.spatial.(i) 1 spatial_levels
  done;
  for i = 0 to Array.length cfg.reduce - 1 do
    widths.(n_spatial + i) <- level_product cfg.reduce.(i) 1 reduce_levels
  done;
  widths
