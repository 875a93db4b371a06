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

(* The SSE gain of splitting [idx] at [threshold] on [feature], or
   [None] if a side is empty.  Two passes over [idx] and no lists:
   each side's sum and count, then each side's squared deviations from
   its mean — the additions of [sse] on the partitioned arrays, in the
   same order.  Left is [<=], right is [>]: a nan feature is on
   neither side. *)
let split_gain (xs : float array array) (ys : float array) idx base feature threshold =
  let sum_l = ref 0. and n_l = ref 0 and sum_r = ref 0. and n_r = ref 0 in
  for k = 0 to Array.length idx - 1 do
    let i = idx.(k) in
    let x = xs.(i).(feature) in
    if x <= threshold then begin
      sum_l := !sum_l +. ys.(i);
      incr n_l
    end
    else if x > threshold then begin
      sum_r := !sum_r +. ys.(i);
      incr n_r
    end
  done;
  if !n_l = 0 || !n_r = 0 then None
  else begin
    let m_l = !sum_l /. float_of_int !n_l and m_r = !sum_r /. float_of_int !n_r in
    let sse_l = ref 0. and sse_r = ref 0. in
    for k = 0 to Array.length idx - 1 do
      let i = idx.(k) in
      let x = xs.(i).(feature) in
      if x <= threshold then sse_l := !sse_l +. ((ys.(i) -. m_l) ** 2.)
      else if x > threshold then sse_r := !sse_r +. ((ys.(i) -. m_r) ** 2.)
    done;
    Some (base -. !sse_l -. !sse_r)
  end

let best_split xs ys idx =
  if Array.length idx < 4 then None
  else
    let n_features = Array.length xs.(idx.(0)) in
    let base = sse ys idx in
    let best = ref None in
    for feature = 0 to n_features - 1 do
      List.iter
        (fun threshold ->
          match (split_gain xs ys idx base feature threshold, !best) with
          | None, _ -> ()
          | Some gain, Some (best_gain, _, _) when gain <= best_gain -> ()
          | Some gain, _ -> best := Some (gain, feature, threshold))
        (thresholds xs idx feature)
    done;
    match !best with
    | Some (gain, feature, threshold) when gain > 1e-12 ->
        let part keep =
          Array.of_list
            (List.filter (fun i -> keep xs.(i).(feature) threshold) (Array.to_list idx))
        in
        Some (feature, threshold, part ( <= ), part ( > ))
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
