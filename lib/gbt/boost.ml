(* Shrinkage applied to every tree's contribution. *)
let learning_rate = 0.3

(* Trees per fit and their depth: the AutoTVM baseline's cost model,
   the only caller, fits 12 trees of depth 3. *)
let rounds = 12
let depth = 3

type t = { base : float; trees : Tree.t list }

(* Gradient boosting with squared loss: each round fits a tree to the
   current residuals — the XGBoost stand-in behind the AutoTVM
   baseline's cost model. *)
let fit xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Boost.fit: size mismatch";
  if Array.length xs = 0 then { base = 0.; trees = [] }
  else
    let n = Array.length ys in
    let base = Array.fold_left ( +. ) 0. ys /. float_of_int n in
    let preds = Array.make n base in
    let rec go round trees =
      if round = 0 then List.rev trees
      else
        let residuals = Array.init n (fun i -> ys.(i) -. preds.(i)) in
        let tree = Tree.fit ~depth xs residuals in
        Array.iteri
          (fun i x -> preds.(i) <- preds.(i) +. (learning_rate *. Tree.predict tree x))
          xs;
        go (round - 1) (tree :: trees)
    in
    { base; trees = go rounds [] }

let predict model x =
  List.fold_left
    (fun acc tree -> acc +. (learning_rate *. Tree.predict tree x))
    model.base model.trees

let n_trees model = List.length model.trees
