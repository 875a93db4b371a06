let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_yolo_table4 () =
  check_int "15 distinct layers" 15 (List.length Ft_workloads.Yolo.layers);
  let c1 = Ft_workloads.Yolo.find "C1" in
  check_int "C1 in channels" 3 c1.c;
  check_int "C1 out channels" 64 c1.k;
  check_int "C1 size" 448 c1.hw;
  check_int "C1 kernel" 7 c1.kernel;
  check_int "C1 stride" 2 c1.stride;
  let c14 = Ft_workloads.Yolo.find "C14" in
  check_int "C14 stride" 2 c14.stride;
  let c15 = Ft_workloads.Yolo.find "C15" in
  check_int "C15 size" 7 c15.hw

let test_yolo_full_network () =
  check_int "24 conv layers" 24 (List.length Ft_workloads.Yolo.full_network)

let test_yolo_graph_shape () =
  let graph = Ft_workloads.Yolo.graph (Ft_workloads.Yolo.find "C1") in
  (* 448 with k7 s2 pad3: (448 + 6 - 7)/2 + 1 = 224 *)
  Alcotest.(check (list int)) "C1 output" [ 1; 64; 224; 224 ]
    (Ft_ir.Op.out_shape (Ft_ir.Op.output_op graph))

let test_overfeat () =
  check_int "5 conv layers" 5 (List.length Ft_workloads.Overfeat.layers);
  let conv1 = List.hd Ft_workloads.Overfeat.layers in
  let graph = Ft_workloads.Overfeat.graph conv1 in
  (* (231 - 11)/4 + 1 = 56 *)
  Alcotest.(check (list int)) "conv1 output" [ 1; 96; 56; 56 ]
    (Ft_ir.Op.out_shape (Ft_ir.Op.output_op graph))

(* Table 3's Test Cases column. *)
let test_suite_case_counts () =
  let expect =
    [ ("GMV", 6); ("GMM", 7); ("BIL", 5); ("C1D", 7); ("T1D", 7); ("C2D", 15);
      ("T2D", 15); ("C3D", 8); ("T3D", 8); ("GRP", 14); ("DEP", 7); ("DIL", 11) ]
  in
  List.iter
    (fun (abbr, n) ->
      check_int (abbr ^ " case count") n
        (List.length (Ft_workloads.Suites.find abbr)))
    expect;
  check_int "12 benchmarks" 12 (List.length Ft_workloads.Suites.all)

let test_all_cases_validate () =
  List.iter
    (fun (abbr, cases) ->
      List.iter
        (fun (case : Ft_workloads.Suites.case) ->
          check_bool
            (Printf.sprintf "%s/%s validates" abbr case.case_name)
            true
            (Ft_ir.Op.validate_exn case.graph == case.graph))
        cases)
    Ft_workloads.Suites.all

let test_unknown_suite () =
  Alcotest.check_raises "unknown" (Invalid_argument "Suites.find: unknown operator XXX")
    (fun () -> ignore (Ft_workloads.Suites.find "XXX"))

(* --- the CLI's target and operator tables --- *)

module Catalog = Ft_workloads.Catalog

let test_target_table () =
  List.iter
    (fun (key, tgt) ->
      let name = Ft_schedule.Target.name tgt in
      List.iter
        (fun spelling ->
          match Catalog.target_of spelling with
          | Ok t ->
              check_bool ("resolves: " ^ spelling) true
                (Ft_schedule.Target.name t = name)
          | Error e -> Alcotest.fail e)
        [ key; name ])
    Catalog.targets;
  check_bool "unknown target rejected" true
    (Result.is_error (Catalog.target_of "no-such-accelerator"))

let test_operator_table () =
  let builds op dims = Result.is_ok (Catalog.graph_of ~op ~dims) in
  check_bool "gemm builds" true (builds "gemm" [ 64; 64; 64 ]);
  check_bool "conv2d builds" true (builds "conv2d" [ 1; 8; 16; 14; 14; 3 ]);
  check_bool "unknown op rejected" false (builds "no-such-op" [ 1 ]);
  check_bool "wrong arity rejected" false (builds "gemm" [ 64 ]);
  check_bool "yolo 1 builds" true (builds "yolo" [ 1 ]);
  check_bool "yolo 15 builds" true (builds "yolo" [ 15 ]);
  check_bool "yolo 0 rejected" false (builds "yolo" [ 0 ]);
  check_bool "yolo 16 rejected" false (builds "yolo" [ 16 ]);
  (* one small instance of every Table-3 family in [Suites.all] *)
  let instances =
    [ ("GMV", "gemv", [ 64; 64 ]); ("GMM", "gemm", [ 64; 64; 64 ]);
      ("BIL", "bilinear", [ 8; 8; 8; 8 ]); ("C1D", "conv1d", [ 1; 4; 8; 16; 3 ]);
      ("T1D", "t1d", [ 1; 4; 8; 16; 3 ]); ("C2D", "conv2d", [ 1; 8; 16; 14; 14; 3 ]);
      ("T2D", "t2d", [ 1; 8; 16; 7; 7; 3 ]); ("C3D", "conv3d", [ 1; 4; 8; 4; 8; 8; 3 ]);
      ("T3D", "t3d", [ 1; 4; 8; 2; 4; 4; 3 ]); ("GRP", "grp", [ 1; 8; 16; 14; 14; 3; 2 ]);
      ("DEP", "dep", [ 1; 8; 14; 14; 3 ]); ("DIL", "dil", [ 1; 8; 16; 14; 14; 3; 2 ]) ]
  in
  List.iter
    (fun (abbr, _) ->
      match List.find_opt (fun (a, _, _) -> a = abbr) instances with
      | None -> Alcotest.failf "no catalog instance for %s" abbr
      | Some (_, op, dims) -> check_bool (abbr ^ " builds as " ^ op) true (builds op dims))
    Ft_workloads.Suites.all

(* The front door: any integer vector of a key's arity, each entry in
   [-2, 6], either builds a graph, is an [Error], or raises only
   [Invalid_argument].  Every graph that builds makes a space on a GPU,
   a CPU and an FPGA target, and survives a one-trial P-method search. *)
let catalog_keys =
  [ ("gemv", 2); ("gemm", 3); ("bilinear", 4); ("conv1d", 5); ("t1d", 5); ("conv2d", 6);
    ("conv2d", 7); ("t2d", 6); ("conv3d", 7); ("t3d", 7); ("grp", 7); ("dep", 5); ("dil", 7);
    ("bcm", 4); ("shift", 4); ("yolo", 1) ]

let qcheck_catalog_front_door =
  let gen =
    QCheck.Gen.(
      let* op, arity = oneofl catalog_keys in
      let* dims = list_repeat arity (int_range (-2) 6) in
      return (op, dims))
  in
  let print (op, dims) = String.concat " " (op :: List.map string_of_int dims) in
  QCheck.Test.make ~name:"every key's small vectors build, Error or Invalid_argument"
    ~count:(300 * List.length catalog_keys) (QCheck.make ~print gen)
    (fun (op, dims) ->
      match Catalog.graph_of ~op ~dims with
      | exception Invalid_argument _ -> true
      | Error _ -> true
      | Ok graph ->
          List.iter
            (fun target ->
              let space = Ft_schedule.Space.make graph (Result.get_ok (Catalog.target_of target)) in
              ignore
                ((Ft_explore.Method.find_exn "P-method").search
                   { Ft_explore.Search_loop.default_params with n_trials = 1 }
                   space))
            [ "v100"; "xeon"; "vu9p" ];
          true)

let () =
  Alcotest.run "ft_workloads"
    [
      ( "yolo",
        [
          Alcotest.test_case "table 4" `Quick test_yolo_table4;
          Alcotest.test_case "full network" `Quick test_yolo_full_network;
          Alcotest.test_case "graph shapes" `Quick test_yolo_graph_shape;
        ] );
      ("overfeat", [ Alcotest.test_case "layers" `Quick test_overfeat ]);
      ( "suites",
        [
          Alcotest.test_case "case counts" `Quick test_suite_case_counts;
          Alcotest.test_case "all validate" `Quick test_all_cases_validate;
          Alcotest.test_case "unknown" `Quick test_unknown_suite;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "target table" `Quick test_target_table;
          Alcotest.test_case "operator table" `Quick test_operator_table;
          QCheck_alcotest.to_alcotest qcheck_catalog_front_door;
        ] );
    ]
