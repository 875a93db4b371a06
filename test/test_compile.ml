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

(* -- Staging paths: address cells and fused leaf loops ------------ *)

(* Loops of extent > 1 whose body, through trip-count-1 wrappers that
   flattening removes, is one leaf: the loops the executor fuses. *)
let single_leaf_loops body =
  let rec strip = function
    | Ft_lower.Loopnest.Loop { extent = 1; body = [ s ]; _ } -> strip s
    | s -> s
  in
  let rec go acc = function
    | Ft_lower.Loopnest.Loop { var; extent; body; _ } -> (
        let acc = List.fold_left go acc body in
        match body with
        | [ s ] when extent > 1 -> (
            match strip s with
            | Ft_lower.Loopnest.Loop _ -> acc
            | leaf -> (var, leaf) :: acc)
        | _ -> acc)
    | _ -> acc
  in
  List.fold_left go [] body

let has_leaf_loop ~var pred space cfg =
  let program = Ft_lower.Lowering.lower space cfg in
  List.exists
    (fun (v, leaf) -> v = var && pred leaf)
    (single_leaf_loops program.Ft_lower.Loopnest.body)

let is_accum = function Ft_lower.Loopnest.Accum _ -> true | _ -> false
let is_init = function Ft_lower.Loopnest.Init _ -> true | _ -> false

let xeon_config space ~spatial ~reduce =
  let cfg =
    {
      (Space.default_config space) with
      spatial;
      reduce;
      unroll_id = 0;
      vectorize = false;
    }
  in
  check_bool "crafted config is valid" true (Space.valid space cfg);
  cfg

(* gemm with j.3 innermost (extent 4): the fused [+=] steps the output
   address every iteration.  The init nest's innermost loop is a fused
   constant store. *)
let test_fused_strided_and_init () =
  let space =
    Space.make (Ft_ir.Operators.gemm ~m:8 ~n:8 ~k:8) Target.xeon_e5_2699_v4
  in
  let cfg =
    xeon_config space
      ~spatial:[| [| 2; 1; 1; 4 |]; [| 1; 2; 1; 4 |] |]
      ~reduce:[| [| 2; 2; 2 |] |]
  in
  check_bool "j.3 is a fused += loop" true
    (has_leaf_loop ~var:"j.3" is_accum space cfg);
  check_bool "j.3 is a fused init loop" true
    (has_leaf_loop ~var:"j.3" is_init space cfg);
  assert_bit_identical space cfg "gemm fused strided"

(* gemv whose s3 factors are all 1: the reduce loop k.2 is innermost
   and the output address is invariant in it, so it accumulates in a
   register. *)
let test_fused_register () =
  let space =
    Space.make (Ft_ir.Operators.gemv ~m:16 ~k:24) Target.xeon_e5_2699_v4
  in
  let cfg =
    xeon_config space
      ~spatial:[| [| 4; 2; 2; 1 |] |]
      ~reduce:[| [| 2; 3; 4 |] |]
  in
  check_bool "k.2 is a fused += loop" true
    (has_leaf_loop ~var:"k.2" is_accum space cfg);
  assert_bit_identical space cfg "gemv register"

(* Padded conv2d with the pad inlined: a [Select] reading the loop
   counters sits inside loops that step address cells. *)
let test_select_in_strided_loops () =
  let graph =
    Ft_ir.Operators.conv2d ~batch:1 ~in_channels:2 ~out_channels:4 ~height:6
      ~width:6 ~kernel:3 ~pad:1 ()
  in
  let space = Space.make graph Target.xeon_e5_2699_v4 in
  let rng = Ft_util.Rng.create 17 in
  let checked = ref 0 in
  while !checked < 6 do
    let cfg =
      { (Space.random_config rng space) with inline = true; unroll_id = 0 }
    in
    if Space.valid space cfg then begin
      incr checked;
      assert_bit_identical ~seed:!checked space cfg "conv2d pad inline"
    end
  done

(* Hand-built programs: run [Exec] and [Compile] on copies of the same
   inputs and compare the outputs bit for bit. *)
let loop ?(binding = Ft_lower.Loopnest.Serial) var extent body =
  Ft_lower.Loopnest.Loop { var; extent; binding; body }

let run_hand_built ?(inputs = [ ("X", [ 4; 6 ]); ("W", [ 3 ]) ]) allocs body =
  let program = { Ft_lower.Loopnest.source = "hand-built"; allocs; body } in
  let fresh () =
    let env = Ft_interp.Buffer_env.create () in
    let rng = Ft_util.Rng.create 3 in
    List.iter
      (fun (name, shape) -> Ft_interp.Buffer_env.fill_random rng env name shape)
      inputs;
    env
  in
  let env_exec = fresh () and env_compiled = fresh () in
  Ft_lower.Exec.run env_exec program;
  Ft_lower.Compile.run (Ft_lower.Compile.compile program) env_compiled;
  List.iter
    (fun (tensor, _) ->
      let a = Ft_interp.Buffer_env.(to_array (find env_exec tensor)) in
      let b = Ft_interp.Buffer_env.(to_array (find env_compiled tensor)) in
      check_bool (tensor ^ " bit-identical") true (bits a = bits b))
    allocs

(* Y[(6i+j)/4][(6i+j)%4] += X[i][j] * W[j%3] inside strided loops: the
   div/mod accesses read the counters, X reads its cell, and the leaf
   is not fusable because W's index is not affine. *)
let test_non_affine_in_strided_loop () =
  let open Ft_ir.Expr in
  let flat = (v "i" *: c 6) +: v "j" in
  run_hand_built
    [ ("Y", [ 6; 4 ]) ]
    [
      loop "i" 4
        [
          loop "j" 6
            [
              Ft_lower.Loopnest.Accum
                {
                  tensor = "Y";
                  indices = [ flat /: c 4; flat %: c 4 ];
                  combine = Ft_ir.Op.Acc_sum;
                  value =
                    Mul
                      (Access ("X", [ v "i"; v "j" ]), Access ("W", [ v "j" %: c 3 ]));
                };
            ];
        ];
    ]

(* An unrolled inner loop flattens into a multi-statement body of the
   serial loop around it; each statement reads its own cells. *)
let test_multi_statement_body () =
  let open Ft_ir.Expr in
  run_hand_built
    [ ("Y", [ 4; 3 ]); ("Z", [ 4 ]) ]
    [
      loop "i" 4
        [
          Ft_lower.Loopnest.Init { tensor = "Z"; indices = [ v "i" ]; value = 1. };
          loop ~binding:Ft_lower.Loopnest.Unrolled "u" 3
            [
              Ft_lower.Loopnest.Assign
                {
                  tensor = "Y";
                  indices = [ v "i"; v "u" ];
                  value = Mul (Access ("X", [ v "i"; v "u" +: c 2 ]), Access ("W", [ v "u" ]));
                };
              Ft_lower.Loopnest.Accum
                {
                  tensor = "Z";
                  indices = [ v "i" ];
                  combine = Ft_ir.Op.Acc_max;
                  value = Access ("X", [ v "i"; c 5 -: v "u" ]);
                };
            ];
        ];
    ]

(* Y[i] += Y[k] * W[k] with k innermost: the output address is
   invariant in k, but the value reads Y, so the fused loop must load
   and store per iteration instead of accumulating in a register. *)
let test_fused_reads_output () =
  let open Ft_ir.Expr in
  run_hand_built
    ~inputs:[ ("W", [ 4 ]) ]
    [ ("Y", [ 4 ]) ]
    [
      loop "i" 4 [ Ft_lower.Loopnest.Init { tensor = "Y"; indices = [ v "i" ]; value = 1. } ];
      loop "i" 4
        [
          loop "k" 4
            [
              Ft_lower.Loopnest.Accum
                {
                  tensor = "Y";
                  indices = [ v "i" ];
                  combine = Ft_ir.Op.Acc_sum;
                  value = Mul (Access ("Y", [ v "k" ]), Access ("W", [ v "k" ]));
                };
            ];
        ];
    ]

(* One bound thunk run twice leaves identical buffers: the cells are
   reset to their bases at the start of every run. *)
let test_thunk_rerun_identical () =
  let space =
    Space.make (Ft_ir.Operators.gemm ~m:8 ~n:8 ~k:8) Target.xeon_e5_2699_v4
  in
  let rng = Ft_util.Rng.create 9 in
  for _ = 1 to 4 do
    let cfg = Space.random_config rng space in
    let program = Ft_lower.Lowering.lower space cfg in
    let env = Ft_interp.Reference.random_env rng space.graph in
    let thunk = Ft_lower.Compile.(bind (compile program) env) in
    let snapshot () =
      List.map
        (fun (t, _) -> bits Ft_interp.Buffer_env.(to_array (find env t)))
        program.allocs
    in
    thunk ();
    let first = snapshot () in
    thunk ();
    check_bool "second run identical" true (first = snapshot ())
  done

(* An out-of-bounds non-affine index raises the [Buffer_env.flat_index]
   message naming the tensor, exactly as [Exec] does. *)
let test_out_of_bounds_named () =
  let open Ft_ir.Expr in
  let program =
    {
      Ft_lower.Loopnest.source = "oob";
      allocs = [ ("Y", [ 4 ]) ];
      body =
        [
          loop "i" 4
            [
              Ft_lower.Loopnest.Assign
                {
                  tensor = "Y";
                  indices = [ (v "i" *: c 3) /: c 2 ];
                  value = Access ("W", [ v "i" %: c 3 ]);
                };
            ];
        ];
    }
  in
  let env () =
    let env = Ft_interp.Buffer_env.create () in
    Ft_interp.Buffer_env.fill_random (Ft_util.Rng.create 1) env "W" [ 3 ];
    env
  in
  let expected =
    Invalid_argument "Buffer_env.flat_index: Y index 4 out of bounds [0, 4)"
  in
  Alcotest.check_raises "Exec" expected (fun () ->
      Ft_lower.Exec.run (env ()) program);
  Alcotest.check_raises "Compile" expected (fun () ->
      Ft_lower.Compile.(run (compile program)) (env ()))

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
      ( "staging",
        [
          Alcotest.test_case "fused strided += and init" `Quick
            test_fused_strided_and_init;
          Alcotest.test_case "fused register +=" `Quick test_fused_register;
          Alcotest.test_case "select in strided loops" `Quick
            test_select_in_strided_loops;
          Alcotest.test_case "non-affine in strided loop" `Quick
            test_non_affine_in_strided_loop;
          Alcotest.test_case "multi-statement body" `Quick
            test_multi_statement_body;
          Alcotest.test_case "fused += reading its output" `Quick
            test_fused_reads_output;
          Alcotest.test_case "thunk rerun identical" `Quick
            test_thunk_rerun_identical;
          Alcotest.test_case "out of bounds named" `Quick
            test_out_of_bounds_named;
        ] );
    ]
