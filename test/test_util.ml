let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Ft_util.Rng.create 42 and b = Ft_util.Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same int" (Ft_util.Rng.int a 1_000_003) (Ft_util.Rng.int b 1_000_003);
    Alcotest.(check (float 0.)) "same float" (Ft_util.Rng.float a 1.) (Ft_util.Rng.float b 1.);
    Alcotest.(check int64) "same state" (Ft_util.Rng.state a) (Ft_util.Rng.state b)
  done

let test_rng_int_bounds () =
  let rng = Ft_util.Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Ft_util.Rng.int rng 13 in
    check_bool "in range" true (x >= 0 && x < 13)
  done

let test_rng_float_bounds () =
  let rng = Ft_util.Rng.create 9 in
  for _ = 1 to 1_000 do
    let x = Ft_util.Rng.float rng 2.5 in
    check_bool "in range" true (x >= 0. && x < 2.5)
  done

let test_rng_split_independent () =
  let a = Ft_util.Rng.create 5 in
  let b = Ft_util.Rng.split a in
  check_bool "different streams" true
    (Ft_util.Rng.float a 1. <> Ft_util.Rng.float b 1.)

let test_rng_invalid () =
  let rng = Ft_util.Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Ft_util.Rng.int rng 0));
  Alcotest.check_raises "choose []" (Invalid_argument "Rng.choose: empty list")
    (fun () -> ignore (Ft_util.Rng.choose rng []))

let test_rng_shuffle_permutation () =
  let rng = Ft_util.Rng.create 3 in
  let arr = Array.init 20 Fun.id in
  Ft_util.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* Rejection sampling keeps every residue equally likely; the old
   `raw mod bound` draw was modulo-biased.  The bias at 62 bits is far
   below statistical resolution, so this is a sanity bound: a grossly
   broken draw (e.g. returning only small residues) fails it. *)
let test_rng_int_uniformity () =
  let rng = Ft_util.Rng.create 11 in
  let bound = 8 and draws = 40_000 in
  let buckets = Array.make bound 0 in
  for _ = 1 to draws do
    let x = Ft_util.Rng.int rng bound in
    buckets.(x) <- buckets.(x) + 1
  done;
  let expected = float_of_int draws /. float_of_int bound in
  let chi2 =
    Array.fold_left
      (fun acc n ->
        let d = float_of_int n -. expected in
        acc +. (d *. d /. expected))
      0. buckets
  in
  (* 7 degrees of freedom: P(chi2 > 24.3) ~ 0.001 *)
  check_bool (Printf.sprintf "chi-square %.2f within bounds" chi2) true (chi2 < 25.)

let test_rng_int_large_bounds () =
  (* Bounds near max_int exercise the rejection path: the acceptance
     window is barely over half the raw range. *)
  let rng = Ft_util.Rng.create 13 in
  let bound = (max_int / 2) + 1 in
  for _ = 1 to 1_000 do
    let x = Ft_util.Rng.int rng bound in
    check_bool "in range at huge bound" true (x >= 0 && x < bound)
  done

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ]
    (Ft_util.Mathx.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Ft_util.Mathx.divisors 1);
  Alcotest.(check (list int)) "divisors 7" [ 1; 7 ] (Ft_util.Mathx.divisors 7)

(* The closed-form count multiplies one stars-and-bars term per prime
   power, so it reads the factorization back: 360 = 2^3 * 3^2 * 5. *)
let test_prime_factors () =
  check_int "360 into 2" (4 * 3 * 2) (Ft_util.Mathx.count_factorizations 360 2);
  check_int "360 into 3" (10 * 6 * 3) (Ft_util.Mathx.count_factorizations 360 3);
  check_int "1 into 4" 1 (Ft_util.Mathx.count_factorizations 1 4);
  check_int "prime 97 into 3" 3 (Ft_util.Mathx.count_factorizations 97 3);
  Alcotest.(check (option int)) "spf 1" None (Ft_util.Mathx.smallest_prime_factor 1);
  Alcotest.(check (option int)) "spf 15" (Some 3) (Ft_util.Mathx.smallest_prime_factor 15)

let test_factorizations () =
  let fs = Ft_util.Mathx.factorizations 12 2 in
  check_int "count 12 into 2" 6 (List.length fs);
  check_int "count 24 into 4" 80 (List.length (Ft_util.Mathx.factorizations 24 4));
  List.iter
    (fun f -> check_int "product" 24 (List.fold_left ( * ) 1 f))
    (Ft_util.Mathx.factorizations 24 4)

let test_count_factorizations_matches_enumeration () =
  List.iter
    (fun (n, k) ->
      check_int
        (Printf.sprintf "count %d into %d" n k)
        (List.length (Ft_util.Mathx.factorizations n k))
        (Ft_util.Mathx.count_factorizations n k))
    [ (1, 4); (7, 3); (12, 2); (24, 4); (36, 3); (64, 4); (100, 4); (210, 3) ]

let test_misc_math () =
  check_int "ceil_div" 4 (Ft_util.Mathx.ceil_div 10 3);
  check_int "clamp" 5 (Ft_util.Mathx.clamp 0 5 9);
  (* 8 = 2^3 into 3 parts: C(5, 2) *)
  check_int "binomial" 10 (Ft_util.Mathx.count_factorizations 8 3);
  check_float "log2" 10. (Ft_util.Mathx.log2 1024.)

let test_stats () =
  check_float "mean" 2.5 (Ft_util.Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "geomean" 2. (Ft_util.Stats.geomean [ 1.; 4. ]);
  check_float "min" 1. (Ft_util.Stats.minimum [ 3.; 1.; 2. ]);
  check_float "max" 3. (Ft_util.Stats.maximum [ 3.; 1.; 2. ]);
  Alcotest.(check (list (float 1e-9))) "normalize" [ 0.5; 1. ]
    (Ft_util.Stats.normalize_to_max [ 2.; 4. ]);
  check_float "median odd" 2. (Ft_util.Stats.median [| 1.; 2.; 7. |]);
  check_float "median even" 2.5 (Ft_util.Stats.median [| 1.; 2.; 3.; 7. |]);
  (* tied values share their mean rank: ranks [1.5; 1.5; 3] and [1; 2; 3] *)
  check_float "spearman ties" (sqrt 0.75)
    (Ft_util.Stats.spearman [| 1.; 1.; 2. |] [| 1.; 2.; 3. |]);
  check_float "spearman reversed" (-1.)
    (Ft_util.Stats.spearman [| 1.; 2.; 3. |] [| 9.; 5.; 0. |]);
  check_float "spearman constant" 0.
    (Ft_util.Stats.spearman [| 1.; 1.; 1. |] [| 1.; 2.; 3. |])

let test_stats_invalid () =
  Alcotest.check_raises "geomean empty" (Invalid_argument "Stats.geomean: empty list")
    (fun () -> ignore (Ft_util.Stats.geomean []));
  Alcotest.check_raises "geomean nonpositive"
    (Invalid_argument "Stats.geomean: requires positive values") (fun () ->
      ignore (Ft_util.Stats.geomean [ 1.; 0. ]))

let test_table_render () =
  let out = Ft_util.Table.render ~header:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333"; "4" ] ] in
  check_bool "contains separator" true (String.length out > 0);
  check_bool "has rows" true (List.length (String.split_on_char '\n' out) = 4);
  Alcotest.check_raises "ragged" (Invalid_argument "Table.render: ragged row")
    (fun () -> ignore (Ft_util.Table.render ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_chart () =
  let out =
    Ft_util.Chart.series ~title:"s" ~x_label:"time" ~y_label:"perf"
      [ ("m", [ (0., 1.); (1., 2.) ]) ]
  in
  check_bool "series non-empty" true (String.length out > 10)

let qcheck_factor_product =
  QCheck.Test.make ~name:"factorizations multiply back" ~count:50
    QCheck.(pair (int_range 1 200) (int_range 1 4))
    (fun (n, k) ->
      List.for_all
        (fun f -> List.fold_left ( * ) 1 f = n)
        (Ft_util.Mathx.factorizations n k))

let qcheck_divisors_divide =
  QCheck.Test.make ~name:"divisors divide" ~count:100
    QCheck.(int_range 1 5000)
    (fun n -> List.for_all (fun d -> n mod d = 0) (Ft_util.Mathx.divisors n))

let test_rng_streams () =
  let a = Ft_util.Rng.stream 42 0 in
  let a' = Ft_util.Rng.stream 42 0 in
  let b = Ft_util.Rng.stream 42 1 in
  Alcotest.(check int64) "stream is a pure function"
    (Ft_util.Rng.state a) (Ft_util.Rng.state a');
  check_bool "streams differ" true
    (Ft_util.Rng.float a 1. <> Ft_util.Rng.float b 1.);
  Alcotest.check_raises "negative stream index"
    (Invalid_argument "Rng.mix: stream index must be >= 0") (fun () ->
      ignore (Ft_util.Rng.mix 42 (-1)))

let () =
  Alcotest.run "ft_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "int large bounds" `Quick test_rng_int_large_bounds;
          Alcotest.test_case "streams" `Quick test_rng_streams;
        ] );
      ( "mathx",
        [
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "prime factors" `Quick test_prime_factors;
          Alcotest.test_case "factorizations" `Quick test_factorizations;
          Alcotest.test_case "closed-form count" `Quick
            test_count_factorizations_matches_enumeration;
          Alcotest.test_case "misc" `Quick test_misc_math;
          QCheck_alcotest.to_alcotest qcheck_factor_product;
          QCheck_alcotest.to_alcotest qcheck_divisors_divide;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats;
          Alcotest.test_case "invalid" `Quick test_stats_invalid;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "chart" `Quick test_chart;
        ] );
    ]
