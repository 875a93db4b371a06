type key = {
  graph : string;
  op : string;
  target : string;
  spatial : int list;
  reduce : int list;
}

type t = {
  key : key;
  method_name : string;
  seed : int;
  best_value : float;
  sim_time_s : float;
  n_evals : int;
  config : string;
  source : string;
}

let key_of_space (space : Ft_schedule.Space.t) =
  {
    graph = space.graph.Ft_ir.Op.graph_name;
    op = space.node.Ft_ir.Op.tag;
    target = Ft_schedule.Target.name space.target;
    spatial = Array.to_list space.spatial_extents;
    reduce = Array.to_list space.reduce_extents;
  }

let key_equal a b =
  String.equal a.graph b.graph
  && String.equal a.op b.op
  && String.equal a.target b.target
  && a.spatial = b.spatial && a.reduce = b.reduce

let same_operator a b =
  String.equal a.op b.op
  && String.equal a.target b.target
  && List.length a.spatial = List.length b.spatial
  && List.length a.reduce = List.length b.reduce

(* Shapes live on a multiplicative scale (a 2x larger extent matters
   the same at every size), hence log2 before the L2 norm. *)
let log2_extents k =
  Array.of_list
    (List.map (fun n -> Ft_util.Mathx.log2 (float_of_int (max 1 n))) (k.spatial @ k.reduce))

let log_distance a b =
  if Array.length a <> Array.length b then
    invalid_arg "Record.log_distance: rank mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let shape_distance a b =
  if not (same_operator a b) then infinity
  else log_distance (log2_extents a) (log2_extents b)

let ints l = Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) l)

(* Key fields are inlined in the record object (the log line format
   predates the wire protocol), so the key's own JSON rendering reuses
   the same field names. *)
let key_to_value k =
  Json.Obj
    [
      ("graph", Json.Str k.graph);
      ("op", Json.Str k.op);
      ("target", Json.Str k.target);
      ("spatial", ints k.spatial);
      ("reduce", ints k.reduce);
    ]

let to_value r =
  Json.Obj
    [
      ("graph", Json.Str r.key.graph);
      ("op", Json.Str r.key.op);
      ("target", Json.Str r.key.target);
      ("spatial", ints r.key.spatial);
      ("reduce", ints r.key.reduce);
      ("method", Json.Str r.method_name);
      ("seed", Json.Num (float_of_int r.seed));
      ("best", Json.Num r.best_value);
      ("sim_time_s", Json.Num r.sim_time_s);
      ("n_evals", Json.Num (float_of_int r.n_evals));
      ("config", Json.Str r.config);
      ("source", Json.Str r.source);
    ]

let to_json r = Json.to_string (to_value r)

let ( let* ) = Result.bind

let key_of_value value =
  let* graph = Json.field value "graph" Json.to_str in
  let* op = Json.field value "op" Json.to_str in
  let* target = Json.field value "target" Json.to_str in
  let* spatial = Json.field value "spatial" Json.to_int_list in
  let* reduce = Json.field value "reduce" Json.to_int_list in
  Ok { graph; op; target; spatial; reduce }

let of_value value =
  let* { graph; op; target; spatial; reduce } = key_of_value value in
  let* method_name = Json.field value "method" Json.to_str in
  let* seed = Json.field value "seed" Json.to_int in
  let* best_value = Json.field value "best" Json.to_num in
  let* sim_time_s = Json.field value "sim_time_s" Json.to_num in
  let* n_evals = Json.field value "n_evals" Json.to_int in
  let* config = Json.field value "config" Json.to_str in
  (* Logs written before provenance existed carry no source; they are
     analytical by construction. *)
  let source =
    match Json.member "source" value with
    | Some (Json.Str s) -> s
    | _ -> "analytical"
  in
  Ok
    {
      key = { graph; op; target; spatial; reduce };
      method_name;
      seed;
      best_value;
      sim_time_s;
      n_evals;
      config;
      source;
    }

let of_json line =
  let* value = Json.of_string line in
  of_value value
