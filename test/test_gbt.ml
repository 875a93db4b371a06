let check_bool = Alcotest.(check bool)

let test_tree_fits_step_function () =
  let xs = Array.init 40 (fun i -> [| float_of_int i |]) in
  let ys = Array.map (fun x -> if x.(0) < 20. then 1. else 5.) xs in
  let tree = Ft_gbt.Tree.fit ~depth:2 xs ys in
  Alcotest.(check (float 1e-9)) "left" 1. (Ft_gbt.Tree.predict tree [| 3. |]);
  Alcotest.(check (float 1e-9)) "right" 5. (Ft_gbt.Tree.predict tree [| 33. |])

let test_tree_depth_zero_is_mean () =
  let xs = [| [| 0. |]; [| 1. |] |] and ys = [| 2.; 4. |] in
  let tree = Ft_gbt.Tree.fit ~depth:0 xs ys in
  Alcotest.(check (float 1e-9)) "mean" 3. (Ft_gbt.Tree.predict tree [| 0.5 |])

(* Mean squared prediction error on a dataset. *)
let mse model xs ys =
  let total = ref 0. in
  Array.iteri
    (fun i x ->
      let d = Ft_gbt.Boost.predict model x -. ys.(i) in
      total := !total +. (d *. d))
    xs;
  !total /. float_of_int (Array.length xs)

let test_boost_reduces_mse () =
  let rng = Ft_util.Rng.create 5 in
  let xs =
    Array.init 200 (fun _ ->
        [| Ft_util.Rng.float rng 1.; Ft_util.Rng.float rng 1. |])
  in
  let target x = (3. *. x.(0)) +. (x.(1) *. x.(1)) in
  let ys = Array.map target xs in
  let model = Ft_gbt.Boost.fit ~rounds:30 ~depth:3 xs ys in
  let mean = Array.fold_left ( +. ) 0. ys /. 200. in
  let constant_mse =
    Array.fold_left (fun acc y -> acc +. ((y -. mean) ** 2.)) 0. ys /. 200.
  in
  let model_mse = mse model xs ys in
  check_bool "beats constant baseline by 5x" true (model_mse < constant_mse /. 5.);
  Alcotest.(check int) "tree count" 30 (Ft_gbt.Boost.n_trees model)

let test_boost_empty_and_mismatch () =
  let model = Ft_gbt.Boost.fit [||] [||] in
  Alcotest.(check (float 1e-9)) "empty predicts 0" 0. (Ft_gbt.Boost.predict model [| 1. |]);
  Alcotest.check_raises "mismatch" (Invalid_argument "Boost.fit: size mismatch")
    (fun () -> ignore (Ft_gbt.Boost.fit [| [| 1. |] |] [||]))

let test_boost_generalizes_ranking () =
  (* The AutoTVM use case: the model must rank unseen points roughly
     correctly, even if absolute values are off. *)
  let rng = Ft_util.Rng.create 6 in
  let feature () = [| Ft_util.Rng.float rng 1. |] in
  let target x = 10. *. x.(0) in
  let xs = Array.init 100 (fun _ -> feature ()) in
  let ys = Array.map target xs in
  let model = Ft_gbt.Boost.fit ~rounds:20 ~depth:2 xs ys in
  let correct = ref 0 in
  for _ = 1 to 100 do
    let a = feature () and b = feature () in
    let truth = target a > target b in
    let pred = Ft_gbt.Boost.predict model a > Ft_gbt.Boost.predict model b in
    if truth = pred then incr correct
  done;
  check_bool "ranks 80%+ of pairs" true (!correct > 80)

let () =
  Alcotest.run "ft_gbt"
    [
      ( "tree",
        [
          Alcotest.test_case "step function" `Quick test_tree_fits_step_function;
          Alcotest.test_case "depth 0" `Quick test_tree_depth_zero_is_mean;
        ] );
      ( "boost",
        [
          Alcotest.test_case "reduces mse" `Quick test_boost_reduces_mse;
          Alcotest.test_case "edge cases" `Quick test_boost_empty_and_mismatch;
          Alcotest.test_case "ranking" `Quick test_boost_generalizes_ranking;
        ] );
    ]
