type t =
  | Leaf of float
  | Split of { feature : int; threshold : float; left : t; right : t }

let mean ys idx =
  if Array.length idx = 0 then 0.
  else
    Array.fold_left (fun acc i -> acc +. ys.(i)) 0. idx
    /. float_of_int (Array.length idx)

let sse ys idx =
  let m = mean ys idx in
  Array.fold_left (fun acc i -> acc +. ((ys.(i) -. m) ** 2.)) 0. idx

(* Candidate thresholds per feature: midpoints between distinct sorted
   values.  Schedule features are coarse (log factors), so candidate
   counts stay small. *)
let thresholds xs idx feature =
  let values =
    List.sort_uniq compare (Array.to_list (Array.map (fun i -> xs.(i).(feature)) idx))
  in
  let rec midpoints = function
    | a :: (b :: _ as rest) -> ((a +. b) /. 2.) :: midpoints rest
    | _ -> []
  in
  midpoints values

let best_split xs ys idx =
  if Array.length idx < 4 then None
  else
    let n_features = Array.length xs.(idx.(0)) in
    let base = sse ys idx in
    let best = ref None in
    for feature = 0 to n_features - 1 do
      List.iter
        (fun threshold ->
          let left = Array.of_list (List.filter (fun i -> xs.(i).(feature) <= threshold)
                                      (Array.to_list idx)) in
          let right = Array.of_list (List.filter (fun i -> xs.(i).(feature) > threshold)
                                       (Array.to_list idx)) in
          if Array.length left > 0 && Array.length right > 0 then begin
            let gain = base -. sse ys left -. sse ys right in
            match !best with
            | Some (best_gain, _, _, _, _) when gain <= best_gain -> ()
            | _ -> best := Some (gain, feature, threshold, left, right)
          end)
        (thresholds xs idx feature)
    done;
    match !best with
    | Some (gain, feature, threshold, left, right) when gain > 1e-12 ->
        Some (feature, threshold, left, right)
    | _ -> None

let rec fit_idx ~depth xs ys idx =
  if depth = 0 then Leaf (mean ys idx)
  else
    match best_split xs ys idx with
    | None -> Leaf (mean ys idx)
    | Some (feature, threshold, left, right) ->
        Split
          {
            feature;
            threshold;
            left = fit_idx ~depth:(depth - 1) xs ys left;
            right = fit_idx ~depth:(depth - 1) xs ys right;
          }

let fit ~depth xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Tree.fit: size mismatch";
  if Array.length xs = 0 then Leaf 0.
  else fit_idx ~depth xs ys (Array.init (Array.length xs) Fun.id)

let rec predict tree x =
  match tree with
  | Leaf value -> value
  | Split { feature; threshold; left; right } ->
      if x.(feature) <= threshold then predict left x else predict right x
