(* Query index over tuning-log records: per-key best cells and
   per-operator shape tables.  Semantics mirror the flat store's
   chronological folds exactly (value ordering, earliest-wins ties) —
   [seq] stamps insertion order so cross-method ties in [nearest]
   resolve the way a file-order scan would. *)

type cell = { seq : int; record : Record.t }

(* One distinct shape of an operator kind: its log2 extents, computed
   once, and the best cell per (method, graph). *)
type shape = { sid : string; logs : float array; mutable bests : cell list }

type t = {
  mutable next_seq : int;
  (* exact key id -> the best cell per method, sorted by (value desc,
     seq asc) *)
  by_key : (string, cell list) Hashtbl.t;
  (* (op, target, ranks), exactly the {!Record.same_operator} class ->
     shape id -> shape *)
  by_op : (string * string * int * int, (string, shape) Hashtbl.t) Hashtbl.t;
}

let create () = { next_seq = 0; by_key = Hashtbl.create 64; by_op = Hashtbl.create 16 }

let ints l = String.concat "," (List.map string_of_int l)

let op_kind (key : Record.key) =
  (key.op, key.target, List.length key.spatial, List.length key.reduce)

let shape_id (key : Record.key) = ints key.spatial ^ "|" ^ ints key.reduce
let key_id (key : Record.key) sid =
  String.concat "|" [ key.graph; key.op; key.target; sid ]

let method_ok method_name (r : Record.t) =
  match method_name with
  | None -> true
  | Some m -> String.equal m r.method_name

let find_or_add tbl id make =
  match Hashtbl.find_opt tbl id with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl id v;
      v

(* Insert keeping (value desc, seq asc): a new cell goes after every
   cell with value >= its own — cells arrive in seq order, so equal
   values stay earliest-first. *)
let rec insert_sorted (c : cell) = function
  | [] -> [ c ]
  | h :: rest when h.record.best_value >= c.record.best_value -> h :: insert_sorted c rest
  | rest -> c :: rest

(* [c] replaces the cell of its class ([same]) unless that cell's
   value is at least as high: the earlier of equal values stays. *)
let keep_best same (c : cell) cells =
  match List.find_opt same cells with
  | Some b when b.record.best_value >= c.record.best_value -> cells
  | Some b -> insert_sorted c (List.filter (fun x -> x != b) cells)
  | None -> insert_sorted c cells

let add t (record : Record.t) =
  let c = { seq = t.next_seq; record } in
  t.next_seq <- t.next_seq + 1;
  let sid = shape_id record.key in
  let kid = key_id record.key sid in
  let same_method (b : cell) = String.equal b.record.method_name record.method_name in
  let cells = Option.value ~default:[] (Hashtbl.find_opt t.by_key kid) in
  Hashtbl.replace t.by_key kid (keep_best same_method c cells);
  let shapes = find_or_add t.by_op (op_kind record.key) (fun () -> Hashtbl.create 16) in
  let shape =
    find_or_add shapes sid (fun () ->
        { sid; logs = Record.log2_extents record.key; bests = [] })
  in
  let same_cell (b : cell) =
    same_method b && String.equal b.record.key.graph record.key.graph
  in
  shape.bests <- keep_best same_cell c shape.bests

let best_exact ?method_name t key =
  Option.bind (Hashtbl.find_opt t.by_key (key_id key (shape_id key)))
    (List.find_map (fun c ->
         if method_ok method_name c.record then Some c.record else None))

(* The ranking's total order: distance, then higher value, then
   textual shape id — candidates are distinct shapes, so none tie and
   a top-[limit] pick equals a full sort's prefix. *)
let rank_before (d, (a : Record.t), sa) (e, (b : Record.t), sb) =
  match Float.compare d e with
  | 0 -> (
      match Float.compare b.best_value a.best_value with
      | 0 -> String.compare sa sb < 0
      | c -> c < 0)
  | c -> c < 0

(* On a ranked list at most [limit] long: whether [x] makes the cut,
   and, when it does, the list with [x] inserted. *)
let rec enters limit x = function
  | [] -> limit > 0
  | [ y ] when limit = 1 -> rank_before x y
  | _ :: rest -> enters (limit - 1) x rest

let rec insert_top limit x = function
  | [] -> [ x ]
  | y :: rest when rank_before y x -> y :: insert_top (limit - 1) x rest
  | l -> x :: List.filteri (fun i _ -> i < limit - 1) l

(* One pass over the operator's shapes: each shape's best qualifying
   cell (value desc, then seq asc — the earliest of equal values, as a
   chronological scan keeps), one distance from the precomputed
   extents, and a top-[limit] pick. *)
let nearest ?method_name ?(limit = 3) t (key : Record.key) =
  match Hashtbl.find_opt t.by_op (op_kind key) with
  | None -> []
  | Some shapes ->
      let qsid = shape_id key and qlogs = Record.log2_extents key in
      let pick sid best (c : cell) =
        if
          (not (method_ok method_name c.record))
          || (String.equal sid qsid && Record.key_equal c.record.key key)
        then best
        else
          match best with
          | Some (b : cell)
            when b.record.best_value > c.record.best_value
                 || (b.record.best_value = c.record.best_value && b.seq < c.seq) -> best
          | _ -> Some c
      in
      Hashtbl.fold
        (fun _ s top ->
          match List.fold_left (pick s.sid) None s.bests with
          | None -> top
          | Some c ->
              let x = (Record.log_distance s.logs qlogs, c.record, s.sid) in
              if enters limit x top then insert_top limit x top else top)
        shapes []
      |> List.map (fun (_, r, _) -> r)
