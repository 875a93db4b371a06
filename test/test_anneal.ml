let check_bool = Alcotest.(check bool)

(* The selection weight of §5.1, spelled out as the oracle for the
   pool's cached weights. *)
let weight ~gamma ~best value =
  if best <= 0. then 1. else exp (-.gamma *. (best -. value) /. best)

(* A pool holding [points], given newest first (the order H is read
   in), so each case reads like the list it describes. *)
let pool_of points =
  let pool = Ft_anneal.Sa.pool () in
  List.iter (fun (p, v) -> Ft_anneal.Sa.add pool p v) (List.rev points);
  pool

(* The head's weight is the width of its interval: a threshold just
   below it picks the head, the weight itself the next point. *)
let test_weight_properties () =
  let head_weight_is w points =
    let pick threshold = Ft_anneal.Sa.pick_at ~gamma:2. ~threshold (pool_of points) in
    String.equal (fst (List.hd points)) (pick (Float.pred w))
    && not (String.equal (fst (List.hd points)) (pick w))
  in
  check_bool "best has weight 1" true
    (head_weight_is 1. [ ("best", 10.); ("worse", 5.) ]);
  check_bool "worse is lighter" true
    (head_weight_is (exp (-1.)) [ ("worse", 5.); ("best", 10.) ]);
  check_bool "weight formula" true
    (head_weight_is (weight ~gamma:2. ~best:10. 9.) [ ("near", 9.); ("best", 10.) ]);
  check_bool "degenerate best" true
    (head_weight_is 1. [ ("a", 0.); ("b", -3.) ])

let test_select_empty_and_count () =
  let rng = Ft_util.Rng.create 1 in
  Alcotest.(check int) "empty" 0
    (List.length (Ft_anneal.Sa.select rng ~gamma:2. ~count:3 (pool_of [])));
  Alcotest.(check int) "count" 5
    (List.length (Ft_anneal.Sa.select rng ~gamma:2. ~count:5 (pool_of [ ("a", 1.) ])))

let test_select_returns_point_with_value () =
  let rng = Ft_util.Rng.create 1 in
  List.iter
    (fun (point, value) ->
      check_bool "pair intact" true
        ((point = "a" && value = 1.) || (point = "b" && value = 2.)))
    (Ft_anneal.Sa.select rng ~gamma:2. ~count:10 (pool_of [ ("a", 1.); ("b", 2.) ]))

let test_select_prefers_good_points () =
  let rng = Ft_util.Rng.create 42 in
  let points = pool_of [ ("bad", 1.); ("good", 10.) ] in
  let picks = Ft_anneal.Sa.select rng ~gamma:4. ~count:2000 points in
  let good =
    List.length (List.filter (fun (p, _) -> String.equal "good" p) picks)
  in
  check_bool "good dominates" true (good > 1800)

let test_gamma_controls_selectivity () =
  let count_good gamma =
    let rng = Ft_util.Rng.create 7 in
    let picks =
      Ft_anneal.Sa.select rng ~gamma ~count:2000
        (pool_of [ ("bad", 5.); ("good", 10.) ])
    in
    List.length (List.filter (fun (p, _) -> String.equal "good" p) picks)
  in
  check_bool "higher gamma is greedier" true (count_good 8. > count_good 0.5)

(* Regression: the scan used `acc >= threshold`, so a zero-weight head
   could swallow a threshold of exactly 0 — a draw that should land in
   the first *positive*-weight element.  A value of neg_infinity
   weighs 0 and the best value weighs 1. *)
let test_pick_at_skips_zero_weights () =
  let pick threshold points =
    Ft_anneal.Sa.pick_at ~gamma:2. ~threshold (pool_of points)
  in
  Alcotest.(check string) "threshold 0 skips a zero-weight head" "a"
    (pick 0. [ ("z", neg_infinity); ("a", 1.); ("b", 1.) ]);
  Alcotest.(check string) "several zero-weight heads" "a"
    (pick 0.
       [ ("z1", neg_infinity); ("z2", neg_infinity); ("z3", neg_infinity);
         ("a", 1.); ("b", 1.) ]);
  Alcotest.(check string) "mid threshold" "b"
    (pick 1.5 [ ("a", 1.); ("b", 1.); ("c", 1.) ]);
  Alcotest.(check string) "boundary goes to the next element" "b"
    (pick 1.0 [ ("a", 1.); ("b", 1.) ]);
  Alcotest.(check string) "fallback at the total" "b"
    (pick 2.0 [ ("a", 1.); ("b", 1.) ])

let test_weighted_pick_never_zero_weight () =
  let rng = Ft_util.Rng.create 17 in
  let pool =
    pool_of [ ("dead", neg_infinity); ("alive", 0.3); ("dead2", neg_infinity) ]
  in
  List.iter
    (fun (got, _) -> check_bool "only positive-weight points" true (String.equal got "alive"))
    (Ft_anneal.Sa.select rng ~gamma:2. ~count:2_000 pool)

(* Regression: select's best-value fold used to start at 0., fabricating
   a phantom best when every real value was below it. *)
let test_select_all_negative_or_sentinel () =
  let rng = Ft_util.Rng.create 23 in
  let picks =
    Ft_anneal.Sa.select rng ~gamma:2. ~count:50 (pool_of [ ("a", -3.); ("b", -1.) ])
  in
  Alcotest.(check int) "all-negative pool still yields picks" 50
    (List.length picks);
  let rng = Ft_util.Rng.create 29 in
  let picks =
    Ft_anneal.Sa.select rng ~gamma:2. ~count:5000
      (pool_of [ ("unreached", neg_infinity); ("real", 1.) ])
  in
  check_bool "never selects an unreached sentinel" true
    (List.for_all (fun (p, _) -> String.equal p "real") picks)

(* The list-based selection the pool replaced, verbatim: H newest
   first, weights recomputed and re-summed on every draw. *)
module Oracle = struct
  let pick_at ~threshold weighted =
    let rec go acc = function
      | [] -> invalid_arg "pick_at: empty"
      | [ (point, _) ] -> point
      | (point, w) :: rest ->
          let acc = acc +. w in
          if acc > threshold then point else go acc rest
    in
    go 0. weighted

  let weighted_pick rng weighted =
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. weighted in
    if total <= 0. then fst (Ft_util.Rng.choose rng weighted)
    else pick_at ~threshold:(Ft_util.Rng.float rng total) weighted

  let select rng ~gamma ~count points =
    match points with
    | [] -> []
    | _ ->
        let best =
          List.fold_left (fun acc (_, value) -> Float.max acc value) neg_infinity points
        in
        let weighted =
          List.map
            (fun ((_, value) as point) -> (point, weight ~gamma ~best value))
            points
        in
        List.init count (fun _ -> weighted_pick rng weighted)
end

(* Random interleavings of [add] and [select]: rising values move the
   incumbent, zeros and negatives take the degenerate-best (uniform
   weight) path, repeated values are duplicate points, and [count] may
   exceed |H|.  Every pick, value bits included, and the RNG state
   after each select must match the oracle. *)
let qcheck_pool_matches_list_select =
  let value_of rng =
    match Ft_util.Rng.int rng 8 with
    | 0 -> 0.
    | 1 -> -.Ft_util.Rng.float rng 5.
    | 2 -> neg_infinity
    | 3 -> float_of_int (Ft_util.Rng.int rng 3)  (* duplicates *)
    | _ -> Ft_util.Rng.float rng 10.
  in
  QCheck.Test.make ~name:"pool select = list select, bit for bit" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let gen = Ft_util.Rng.create seed in
      let scale = 1. +. Ft_util.Rng.float gen 100. in
      let pool = Ft_anneal.Sa.pool () in
      let list = ref [] in
      let ok = ref true in
      for step = 1 to 60 do
        if Ft_util.Rng.int gen 3 > 0 then begin
          let value = scale *. value_of gen in
          Ft_anneal.Sa.add pool step value;
          list := (step, value) :: !list
        end
        else begin
          let gamma = Ft_util.Rng.choose gen [ 0.5; 2.; 2.; 8. ] in
          let count = Ft_util.Rng.int gen (2 + (2 * List.length !list)) in
          let r1 = Ft_util.Rng.create step and r2 = Ft_util.Rng.create step in
          let got = Ft_anneal.Sa.select r1 ~gamma ~count pool in
          let want = Oracle.select r2 ~gamma ~count !list in
          let same (p, v) (q, w) =
            p = q && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w)
          in
          ok :=
            !ok
            && List.length got = List.length want
            && List.for_all2 same got want
            && Int64.equal (Ft_util.Rng.state r1) (Ft_util.Rng.state r2)
        end
      done;
      !ok && Ft_anneal.Sa.to_list pool = !list)

(* The pick as a scan, newest first, over the pool's weights (oldest
   first): the oracle for the cumulative binary search. *)
let scan_pick ~threshold weights =
  let acc = ref 0. and i = ref (Array.length weights - 1) in
  while !i > 0 && (acc := !acc +. weights.(!i); not (!acc > threshold)) do decr i done;
  !i

(* Pools whose weights include zeros (neg_infinity values under
   gamma > 0), +inf (very low values under a negative gamma), NaN
   everywhere (a NaN value makes the best NaN) and NaN on the oldest
   points only (neg_infinity under gamma = 0), probed at random
   thresholds and at every cumulative value, its neighbours, 0, the
   total, infinities and NaN. *)
let qcheck_pick_matches_scan =
  QCheck.Test.make ~name:"cumulative pick = newest-first scan" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let gen = Ft_util.Rng.create seed in
      let n = 1 + Ft_util.Rng.int gen 12 in
      let values =
        List.init n (fun _ ->
            match Ft_util.Rng.int gen 8 with
            | 0 -> neg_infinity
            | 1 -> 0.
            | 2 -> -1000.
            | 3 when Ft_util.Rng.int gen 6 = 0 -> nan
            | 4 -> float_of_int (Ft_util.Rng.int gen 3)
            | _ -> Ft_util.Rng.float gen 10.)
      in
      let gamma = Ft_util.Rng.choose gen [ 2.; 0.5; 0.; -10.; infinity ] in
      let pool = Ft_anneal.Sa.pool () in
      List.iteri (fun i v -> Ft_anneal.Sa.add pool i v) values;
      let best = List.fold_left Float.max neg_infinity values in
      let weights = Array.of_list (List.map (weight ~gamma ~best) values) in
      let _, cums =
        Array.fold_right
          (fun w (acc, cums) -> (acc +. w, (acc +. w) :: cums))
          weights (0., [])
      in
      let thresholds =
        List.concat_map (fun c -> [ c; Float.pred c; Float.succ c ]) cums
        @ [ 0.; -1.; infinity; neg_infinity; nan; Ft_util.Rng.float gen 20. ]
      in
      List.for_all
        (fun threshold ->
          Ft_anneal.Sa.pick_at ~gamma ~threshold pool = scan_pick ~threshold weights)
        thresholds)

let () =
  Alcotest.run "ft_anneal"
    [
      ( "sa",
        [
          Alcotest.test_case "weights" `Quick test_weight_properties;
          Alcotest.test_case "select basics" `Quick test_select_empty_and_count;
          Alcotest.test_case "select keeps values" `Quick
            test_select_returns_point_with_value;
          Alcotest.test_case "prefers good" `Quick test_select_prefers_good_points;
          Alcotest.test_case "gamma selectivity" `Quick test_gamma_controls_selectivity;
          Alcotest.test_case "pick_at thresholds" `Quick
            test_pick_at_skips_zero_weights;
          Alcotest.test_case "weighted_pick zero weights" `Quick
            test_weighted_pick_never_zero_weight;
          Alcotest.test_case "select degenerate values" `Quick
            test_select_all_negative_or_sentinel;
          QCheck_alcotest.to_alcotest qcheck_pool_matches_list_select;
          QCheck_alcotest.to_alcotest qcheck_pick_matches_scan;
        ] );
    ]
