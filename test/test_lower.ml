open Ft_schedule

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_targets = Target.[ v100; xeon_e5_2699_v4; vu9p ]

(* The central property: every schedule point lowers to a loop nest
   that computes exactly what the reference does — across all operator
   families, targets, and random points (including non-inlined
   producers, all order templates, unrolling). *)
let test_random_schedules_preserve_semantics () =
  let rng = Ft_util.Rng.create 2020 in
  List.iter
    (fun (case : Ft_workloads.Suites.case) ->
      List.iter
        (fun target ->
          let space = Space.make case.graph target in
          for i = 0 to 3 do
            let cfg =
              if i = 0 then Space.default_config space
              else Space.random_config rng space
            in
            match Ft_lower.Verify.check space cfg with
            | Ok () -> ()
            | Error msg ->
                Alcotest.failf "%s on %s: %s (config %s)" case.case_name
                  (Target.name target) msg (Config_io.to_string cfg)
          done)
        all_targets)
    Tiny.cases

let test_all_order_templates_preserve_semantics () =
  let graph =
    Ft_ir.Operators.conv2d ~batch:1 ~in_channels:4 ~out_channels:4 ~height:6
      ~width:6 ~kernel:3 ~pad:1 ()
  in
  let space = Space.make graph Target.v100 in
  let rng = Ft_util.Rng.create 4 in
  for order_id = 0 to Space.n_orders - 1 do
    let cfg = { (Space.random_config rng space) with order_id } in
    match Ft_lower.Verify.check space cfg with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "order %d: %s" order_id msg
  done

let test_inline_vs_materialized_agree () =
  let graph =
    Ft_ir.Operators.conv1d ~batch:1 ~in_channels:2 ~out_channels:3 ~length:8
      ~kernel:3 ~pad:1 ()
  in
  let space = Space.make graph Target.xeon_e5_2699_v4 in
  let rng = Ft_util.Rng.create 8 in
  for _ = 1 to 5 do
    let cfg = Space.random_config rng space in
    List.iter
      (fun inline ->
        match Ft_lower.Verify.check space { cfg with inline } with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "inline=%b: %s" inline msg)
      [ true; false ]
  done

(* The leaf statements of a lowered program, in program order. *)
let rec leaves stmts =
  List.concat_map
    (function
      | Ft_lower.Loopnest.Loop { body; _ } -> leaves body
      | stmt -> [ stmt ])
    stmts

let test_axis_index_reconstruction () =
  (* split i in [0, 24) by factors [2;3;2;2], then decompose every i
     and evaluate the output index the lowered accumulation writes. *)
  let space = Space.make (Ft_ir.Operators.gemv ~m:24 ~k:4) Target.v100 in
  let cfg = Space.default_config space in
  let cfg = { cfg with spatial = [| [| 2; 3; 2; 2 |] |] } in
  check_bool "valid split" true (Space.valid space cfg);
  let program = Ft_lower.Lowering.lower space cfg in
  let expr =
    match
      List.find_map
        (function
          | Ft_lower.Loopnest.Accum { tensor = "O"; indices = [ i ]; _ } -> Some i
          | _ -> None)
        (leaves program.body)
    with
    | Some i -> i
    | None -> Alcotest.fail "no accumulation into O"
  in
  let idx = ref 0 in
  for i0 = 0 to 1 do
    for i1 = 0 to 2 do
      for i2 = 0 to 1 do
        for i3 = 0 to 1 do
          let env =
            [ ("i.0", i0); ("i.1", i1); ("i.2", i2); ("i.3", i3) ]
          in
          check_int "reconstructed" !idx (Ft_ir.Expr.eval_iexpr env expr);
          incr idx
        done
      done
    done
  done;
  check_bool "lowered program matches the reference" true
    (Result.is_ok (Ft_lower.Verify.check space cfg))

let test_inline_expr_removes_producer_accesses () =
  let graph =
    Ft_ir.Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:2 ~height:4
      ~width:4 ~kernel:3 ~pad:1 ()
  in
  let space = Space.make graph Target.v100 in
  let read inline =
    let program = Ft_lower.Lowering.lower space { (Space.default_config space) with inline } in
    List.concat_map
      (function
        | Ft_lower.Loopnest.Accum { value; _ } | Ft_lower.Loopnest.Assign { value; _ } ->
            Ft_ir.Expr.tensors_read value
        | _ -> [])
      (leaves program.body)
  in
  check_bool "no more pad access" false (List.mem "I.pad" (read true));
  check_bool "reads raw input" true (List.mem "I" (read true));
  check_bool "materialized pad is read" true (List.mem "I.pad" (read false))

let test_program_structure () =
  let graph = Ft_ir.Operators.gemm ~m:8 ~n:8 ~k:8 in
  let space = Space.make graph Target.v100 in
  let program = Ft_lower.Lowering.lower space (Space.default_config space) in
  check_int "single alloc when inlined" 1 (List.length program.allocs);
  (* init nest: 8 loops + init; compute nest: 11 loops + accum *)
  check_int "statement count" 21 (Ft_lower.Loopnest.count_stmts program.body);
  check_int "max depth" 11 (Ft_lower.Loopnest.max_depth program.body)

let test_pretty_render () =
  let graph = Ft_ir.Operators.gemm ~m:4 ~n:4 ~k:4 in
  let space = Space.make graph Target.v100 in
  let code = Ft_lower.Pretty.render (Ft_lower.Lowering.lower space (Space.default_config space)) in
  let contains needle =
    let n = String.length needle and h = String.length code in
    let rec go i =
      i + n <= h && (String.equal (String.sub code i n) needle || go (i + 1))
    in
    go 0
  in
  check_bool "has blockIdx" true (contains "blockIdx");
  check_bool "has accumulation" true (contains "+=");
  check_bool "declares output" true (contains "float O[4][4]")

let test_unrolled_binding_used () =
  let graph = Ft_ir.Operators.gemm ~m:8 ~n:8 ~k:8 in
  let space = Space.make graph Target.v100 in
  let cfg = { (Space.default_config space) with unroll_id = 2 } in
  let program = Ft_lower.Lowering.lower space cfg in
  let rec has_unrolled = function
    | Ft_lower.Loopnest.Loop { binding; body; _ } ->
        binding = Ft_lower.Loopnest.Unrolled || List.exists has_unrolled body
    | _ -> false
  in
  check_bool "unrolled loop present" true (List.exists has_unrolled program.body)

let () =
  Alcotest.run "ft_lower"
    [
      ( "semantics",
        [
          Alcotest.test_case "random schedules preserve semantics" `Slow
            test_random_schedules_preserve_semantics;
          Alcotest.test_case "all order templates" `Quick
            test_all_order_templates_preserve_semantics;
          Alcotest.test_case "inline vs materialized" `Quick
            test_inline_vs_materialized_agree;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "axis index reconstruction" `Quick
            test_axis_index_reconstruction;
          Alcotest.test_case "inline expression" `Quick
            test_inline_expr_removes_producer_accesses;
          Alcotest.test_case "program structure" `Quick test_program_structure;
          Alcotest.test_case "pretty rendering" `Quick test_pretty_render;
          Alcotest.test_case "unroll binding" `Quick test_unrolled_binding_used;
        ] );
    ]
