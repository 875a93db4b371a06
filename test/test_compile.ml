(* The compiled executor (Ft_lower.Compile) against the tree-walking
   reference (Ft_lower.Exec): identical inputs, every written buffer
   compared bit-for-bit (0 ulp — the compile pass must preserve the
   ascending accumulation order exactly, not approximately). *)

open Ft_schedule

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_targets = Target.[ v100; xeon_e5_2699_v4; vu9p ]

let clone_inputs graph src =
  let dst = Ft_interp.Buffer_env.create () in
  List.iter
    (fun (name, shape) ->
      Ft_interp.Buffer_env.set dst name shape
        Ft_interp.Buffer_env.(to_array (find src name)))
    graph.Ft_ir.Op.inputs;
  dst

let bits a = Array.map Int64.bits_of_float a

(* Run both executors on identical random inputs; compare every buffer
   the program allocates (intermediates included, not just the
   output). *)
let assert_bit_identical ?(seed = 11) (space : Space.t) cfg ctx =
  let graph = space.graph in
  let program = Ft_lower.Lowering.lower space cfg in
  let rng = Ft_util.Rng.create seed in
  let env_exec = Ft_interp.Reference.random_env rng graph in
  let env_compiled = clone_inputs graph env_exec in
  Ft_lower.Exec.run env_exec program;
  let compiled = Ft_lower.Compile.compile program in
  Ft_lower.Compile.run compiled env_compiled;
  List.iter
    (fun (tensor, _) ->
      let a = Ft_interp.Buffer_env.(to_array (find env_exec tensor)) in
      let b = Ft_interp.Buffer_env.(to_array (find env_compiled tensor)) in
      if bits a <> bits b then
        Alcotest.failf "%s: buffer %s differs (max abs diff %.3e, config %s)"
          ctx tensor
          (Ft_interp.Buffer_env.max_abs_diff a b)
          (Config.to_string cfg))
    program.allocs

(* Every operator family x every target x default + random configs. *)
let test_compiled_matches_exec_all_operators () =
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
            assert_bit_identical ~seed:(i + 1) space cfg
              (Printf.sprintf "%s on %s" case.case_name (Target.name target))
          done)
        all_targets)
    Ft_workloads.Suites.tiny

(* Inline on/off over a producer-bearing graph (conv has a pad
   producer), plus forced unroll and vectorize splits — the paths the
   compile pass rewrites most aggressively. *)
let test_compiled_inline_and_unroll_variants () =
  let graph =
    Ft_ir.Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:3 ~height:6
      ~width:6 ~kernel:3 ~pad:1 ()
  in
  List.iter
    (fun target ->
      let space = Space.make graph target in
      let rng = Ft_util.Rng.create 5 in
      for trial = 1 to 4 do
        let cfg = Space.random_config rng space in
        List.iter
          (fun inline ->
            for unroll_id = 0 to Array.length Space.unroll_depths - 1 do
              let cfg = { cfg with inline; unroll_id } in
              if Space.valid space cfg then
                assert_bit_identical ~seed:trial space cfg
                  (Printf.sprintf "conv2d %s inline=%b unroll=%d"
                     (Target.name target) inline unroll_id)
            done)
          [ true; false ]
      done)
    all_targets

let qcheck_compiled_bit_for_bit =
  QCheck.Test.make ~name:"compiled executor bit-for-bit vs Exec" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let cases = Ft_workloads.Suites.tiny in
      let case = List.nth cases (Ft_util.Rng.int rng (List.length cases)) in
      let target =
        List.nth all_targets (Ft_util.Rng.int rng (List.length all_targets))
      in
      let space = Space.make case.graph target in
      let cfg = Space.random_config rng space in
      assert_bit_identical ~seed space cfg
        (Printf.sprintf "%s on %s (seed %d)" case.case_name (Target.name target)
           seed);
      true)

(* The unroll flattener must actually remove unrolled loops: compiling
   a schedule with a forced unroll split yields more statements than
   the nested source when the body is duplicated. *)
let test_unroll_flattening_expands () =
  let graph = Ft_ir.Operators.gemm ~m:8 ~n:8 ~k:8 in
  let space = Space.make graph Target.v100 in
  (* Force a nontrivial innermost split so the unrolled loop has
     extent > 1 and flattening actually duplicates its body. *)
  let cfg =
    {
      (Space.default_config space) with
      spatial = [| [| 2; 1; 1; 4 |]; [| 2; 1; 1; 4 |] |];
      unroll_id = 2;
    }
  in
  check_bool "crafted config is valid" true (Space.valid space cfg);
  let program = Ft_lower.Lowering.lower space cfg in
  let compiled = Ft_lower.Compile.compile program in
  check_bool "flattening duplicated unrolled bodies" true
    (Ft_lower.Compile.stmt_count compiled
    > Ft_lower.Loopnest.count_stmts program.body);
  assert_bit_identical space cfg "gemm unroll_id=2"

(* A missing input binding surfaces as Invalid_argument naming the
   tensor, exactly like Exec via Buffer_env.find. *)
let test_missing_input_named () =
  let graph = Ft_ir.Operators.gemm ~m:4 ~n:4 ~k:4 in
  let space = Space.make graph Target.v100 in
  let program = Ft_lower.Lowering.lower space (Space.default_config space) in
  let compiled = Ft_lower.Compile.compile program in
  let env = Ft_interp.Buffer_env.create () in
  Alcotest.check_raises "names the tensor"
    (Invalid_argument "Buffer_env.find: no tensor A") (fun () ->
      Ft_lower.Compile.run compiled env)

(* Affine linearization groundwork: the stride analysis in Ft_ir.Expr
   agrees with eval_iexpr on every environment. *)
let qcheck_affine_agrees_with_eval =
  let open Ft_ir.Expr in
  let rec random_iexpr rng depth =
    if depth = 0 then
      if Ft_util.Rng.int rng 2 = 0 then
        Ivar (Printf.sprintf "v%d" (Ft_util.Rng.int rng 4))
      else Iconst (Ft_util.Rng.int rng 21 - 10)
    else
      let a = random_iexpr rng (depth - 1) and b = random_iexpr rng (depth - 1) in
      match Ft_util.Rng.int rng 5 with
      | 0 -> Iadd (a, b)
      | 1 -> Isub (a, b)
      | 2 -> Imul (a, Iconst (Ft_util.Rng.int rng 9 - 4))
      | 3 -> Idiv (a, Iconst (1 + Ft_util.Rng.int rng 4))
      | _ -> Imod (a, Iconst (1 + Ft_util.Rng.int rng 4))
  in
  QCheck.Test.make ~name:"affine_of_iexpr agrees with eval_iexpr" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let e = random_iexpr rng (1 + Ft_util.Rng.int rng 3) in
      let env =
        List.init 4 (fun i ->
            (Printf.sprintf "v%d" i, Ft_util.Rng.int rng 13 - 6))
      in
      (match affine_of_iexpr e with
      | Some a ->
          check_int "affine = eval" (eval_iexpr env e) (affine_eval env a)
      | None -> ());
      check_int "fold = eval" (eval_iexpr env e)
        (eval_iexpr env (fold_iexpr e));
      true)

let () =
  Alcotest.run "ft_compile"
    [
      ( "bit-for-bit",
        [
          Alcotest.test_case "all operators, all targets" `Slow
            test_compiled_matches_exec_all_operators;
          Alcotest.test_case "inline and unroll variants" `Slow
            test_compiled_inline_and_unroll_variants;
          QCheck_alcotest.to_alcotest qcheck_compiled_bit_for_bit;
        ] );
      ( "structure",
        [
          Alcotest.test_case "unroll flattening expands" `Quick
            test_unroll_flattening_expands;
          Alcotest.test_case "missing input named" `Quick
            test_missing_input_named;
          QCheck_alcotest.to_alcotest qcheck_affine_agrees_with_eval;
        ] );
    ]
