open Ft_ir

let rec eval_texpr env bindings = function
  | Expr.Access (tensor, indices) ->
      let values = List.map (Expr.eval_iexpr bindings) indices in
      Buffer_env.get env tensor values
  | Expr.Const x -> x
  | Expr.Add (a, b) -> eval_texpr env bindings a +. eval_texpr env bindings b
  | Expr.Sub (a, b) -> eval_texpr env bindings a -. eval_texpr env bindings b
  | Expr.Mul (a, b) -> eval_texpr env bindings a *. eval_texpr env bindings b
  | Expr.Select (cond, a, b) ->
      (* Lazy: the untaken branch may index out of bounds (that is the
         point of padding selects). *)
      if Expr.eval_cond bindings cond then eval_texpr env bindings a
      else eval_texpr env bindings b

let combine_value combine acc value =
  match combine with
  | Op.Acc_sum -> acc +. value
  | Op.Acc_max -> Float.max acc value

(* Naive execution: iterate every spatial point, fold the body over
   every reduce point starting from [init]. *)
let run_op env (op : Op.t) =
  let buffer = Buffer_env.alloc env op.output (Op.out_shape op) in
  let spatial = Array.of_list op.spatial in
  let reduce = Array.of_list op.reduce in
  let rec reduce_loop bindings level acc =
    if level >= Array.length reduce then
      combine_value op.combine acc (eval_texpr env bindings op.body)
    else
      let axis = reduce.(level) in
      let total = ref acc in
      for i = 0 to axis.extent - 1 do
        total := reduce_loop ((axis.axis_name, i) :: bindings) (level + 1) !total
      done;
      !total
  in
  let out : Buffer_env.vec = buffer.Buffer_env.data in
  let rec spatial_loop bindings level flat =
    if level >= Array.length spatial then
      Bigarray.Array1.set out flat (reduce_loop bindings 0 op.init)
    else
      let axis = spatial.(level) in
      for i = 0 to axis.extent - 1 do
        spatial_loop ((axis.axis_name, i) :: bindings) (level + 1)
          ((flat * axis.extent) + i)
      done
  in
  if Array.length reduce = 0 then
    (* The implicit single reduce iteration still combines with init,
       so Acc_max with init 0 is exactly ReLU. *)
    spatial_loop [] 0 0
  else spatial_loop [] 0 0

let run_graph env graph =
  List.iter (run_op env) graph.Op.ops;
  Buffer_env.to_array (Buffer_env.find env graph.output)

let random_env rng graph =
  let env = Buffer_env.create () in
  List.iter
    (fun (name, shape) -> Buffer_env.fill_random rng env name shape)
    graph.Op.inputs;
  env
