(* Query index over tuning-log records: per-key best-k lists and
   per-operator shape tables.  Semantics mirror the flat store's
   chronological folds exactly (value ordering, earliest-wins ties) —
   [seq] stamps insertion order so cross-method ties in [nearest]
   resolve the way a file-order scan would. *)

type cell = { seq : int; record : Record.t }

(* One distinct shape of an operator kind: its log2 extents, computed
   once, and the best cell per (method, graph), earliest wins ties. *)
type shape = { sid : string; logs : float array; mutable bests : cell list }

type t = {
  k : int;
  mutable count : int;  (* also the next cell's [seq] *)
  (* exact key id -> cells sorted by (value desc, seq asc), truncated
     to k per method *)
  by_key : (string, cell list) Hashtbl.t;
  (* (op, target, ranks), exactly the {!Record.same_operator} class
     (an [op_id] is not once a name holds a '|') -> shape id -> shape *)
  by_op : (string * string * int * int, (string, shape) Hashtbl.t) Hashtbl.t;
}

let create ?(k = 4) () =
  if k < 1 then invalid_arg "Index.create: k must be >= 1";
  { k; count = 0; by_key = Hashtbl.create 64; by_op = Hashtbl.create 16 }

let count t = t.count

let ints l = String.concat "," (List.map string_of_int l)

(* Shard file names come from [op_id]: its bytes are part of the
   on-disk layout. *)
let op_id (key : Record.key) =
  String.concat "|"
    [ key.op; key.target; string_of_int (List.length key.spatial);
      string_of_int (List.length key.reduce) ]

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

(* One insertion takes a method to at most k + 1 cells: drop its last
   (lowest-value, newest) one. *)
let enforce_method_cap k m cells =
  match List.filter (fun c -> String.equal c.record.Record.method_name m) cells with
  | ms when List.length ms <= k -> cells
  | ms ->
      let worst = List.nth ms k in
      List.filter (fun c -> c != worst) cells

let add t (record : Record.t) =
  let c = { seq = t.count; record } in
  t.count <- t.count + 1;
  let sid = shape_id record.key in
  let kid = key_id record.key sid in
  let cells = Option.value ~default:[] (Hashtbl.find_opt t.by_key kid) in
  Hashtbl.replace t.by_key kid
    (enforce_method_cap t.k record.method_name (insert_sorted c cells));
  let shapes = find_or_add t.by_op (op_kind record.key) (fun () -> Hashtbl.create 16) in
  let shape =
    find_or_add shapes sid (fun () ->
        { sid; logs = Record.log2_extents record.key; bests = [] })
  in
  let same (b : cell) =
    String.equal b.record.method_name record.method_name
    && String.equal b.record.key.graph record.key.graph
  in
  match List.find_opt same shape.bests with
  | Some b when b.record.best_value >= record.best_value -> ()
  | Some _ -> shape.bests <- List.map (fun b -> if same b then c else b) shape.bests
  | None -> shape.bests <- c :: shape.bests

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

let survivors t =
  let cells = Hashtbl.fold (fun _ cs acc -> cs @ acc) t.by_key [] in
  List.map (fun c -> c.record)
    (List.sort (fun a b -> compare a.seq b.seq) cells)
