module L = Ft_linalg.Linalg

(* Shrinkage applied to every tree's contribution. *)
let learning_rate = 0.3

type t = {
  base : float;
  trees : Tree.t list;
  (* Flat forms built once and reused by every batch scoring call;
     the model is immutable after [fit], so the cache never staled. *)
  mutable flats : Tree.flat array option;
}

let flats model =
  match model.flats with
  | Some f -> f
  | None ->
      let f = Array.of_list (List.map Tree.flatten model.trees) in
      model.flats <- Some f;
      f

(* Gradient boosting with squared loss: each round fits a tree to the
   current residuals — the XGBoost stand-in behind the AutoTVM
   baseline's cost model.  The per-round prediction update scores all
   rows through the flattened tree (same leaves, same floats as the
   boxed walk, at a fraction of the pointer chasing). *)
let fit ?(rounds = 20) ?(depth = 3) xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Boost.fit: size mismatch";
  if Array.length xs = 0 then
    { base = 0.; trees = []; flats = None }
  else
    let n = Array.length ys in
    let base = Array.fold_left ( +. ) 0. ys /. float_of_int n in
    let preds = Array.make n base in
    let rec go round trees =
      if round = 0 then List.rev trees
      else
        let residuals = Array.init n (fun i -> ys.(i) -. preds.(i)) in
        let tree = Tree.fit ~depth xs residuals in
        let flat = Tree.flatten tree in
        Array.iteri
          (fun i x ->
            preds.(i) <- preds.(i) +. (learning_rate *. Tree.predict_flat flat x))
          xs;
        go (round - 1) (tree :: trees)
    in
    { base; trees = go rounds []; flats = None }

let predict model x =
  List.fold_left
    (fun acc tree -> acc +. (learning_rate *. Tree.predict tree x))
    model.base model.trees

(* Batch scoring: one flat float64 matrix of features, every tree
   walked over all rows from its struct-of-arrays form.  Trees are
   accumulated in fit order per row, so [out.(i)] is bit-for-bit
   [predict model xs.(i)]. *)
let predict_batch model xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let cols = Array.length xs.(0) in
    let x = L.of_rows ~cols xs in
    let out = Array.make n model.base in
    Array.iter
      (fun (flat : Tree.flat) ->
        for i = 0 to n - 1 do
          let node = ref 0 in
          while flat.Tree.feature.(!node) >= 0 do
            let id = !node in
            node :=
              (if
                 Bigarray.Array2.unsafe_get x i flat.Tree.feature.(id)
                 <= flat.Tree.threshold.(id)
               then flat.Tree.left.(id)
               else flat.Tree.right.(id))
          done;
          out.(i) <- out.(i) +. (learning_rate *. flat.Tree.value.(!node))
        done)
      (flats model);
    out
  end

let mse model xs ys =
  if Array.length xs = 0 then 0.
  else
    let preds = predict_batch model xs in
    let total = ref 0. in
    Array.iteri
      (fun i p ->
        let d = p -. ys.(i) in
        total := !total +. (d *. d))
      preds;
    !total /. float_of_int (Array.length xs)

let n_trees model = List.length model.trees
