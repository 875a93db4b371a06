open Ft_schedule

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let gemm_space target = Space.make (Ft_ir.Operators.gemm ~m:64 ~n:32 ~k:16) target

let conv_space target =
  Space.make
    (Ft_ir.Operators.conv2d ~batch:1 ~in_channels:8 ~out_channels:16 ~height:12
       ~width:12 ~kernel:3 ~pad:1 ())
    target

let all_targets = Target.[ v100; xeon_e5_2699_v4; vu9p ]

let test_space_size_closed_form () =
  (* GEMM 64x32x16 on GPU: 4-way splits of 64, 32; 3-way of 16; orders
     x unrolls x inline(no producers -> 1). *)
  let space = gemm_space Target.v100 in
  let expected =
    Ft_util.Mathx.count_factorizations 64 4
    * Ft_util.Mathx.count_factorizations 32 4
    * Ft_util.Mathx.count_factorizations 16 3
    * Space.n_orders
    * Array.length Space.unroll_depths
  in
  Alcotest.(check (float 1.)) "closed form" (float_of_int expected) (Space.size space)

let test_space_size_grows_with_hardware_knobs () =
  let gpu = Space.size (conv_space Target.v100) in
  let cpu = Space.size (conv_space Target.xeon_e5_2699_v4) in
  check_bool "cpu adds fuse+vectorize dims" true (cpu > gpu)

let test_default_and_random_valid () =
  let rng = Ft_util.Rng.create 1 in
  List.iter
    (fun target ->
      let space = conv_space target in
      check_bool "default valid" true (Space.valid space (Space.default_config space));
      for _ = 1 to 50 do
        check_bool "random valid" true
          (Space.valid space (Space.random_config rng space))
      done)
    all_targets

let test_heuristic_seeds_valid () =
  List.iter
    (fun target ->
      let space = conv_space target in
      List.iter
        (fun cfg -> check_bool "seed valid" true (Space.valid space cfg))
        (Heuristics.seed_configs space))
    all_targets

(* The GPU heuristic splits its largest axis (here also the innermost)
   near [vthread; threads; inner] under the outermost level. *)
let test_split_near () =
  let space = Space.make (Ft_ir.Operators.gemm ~m:7 ~n:1024 ~k:8) Target.v100 in
  let cfg =
    Heuristics.gpu_config space ~threads_per_axis:16 ~vthread:2 ~inner:4 ~rtile:1
  in
  let factors = cfg.spatial.(1) in
  Alcotest.(check (array int)) "levels" [| 8; 2; 16; 4 |] factors;
  check_int "product" 1024 (Array.fold_left ( * ) 1 factors);
  check_int "thread level" 16 factors.(2);
  check_int "inner level" 4 factors.(3);
  (* prime extent: no divisor is near a target but 7 itself *)
  let prime = cfg.spatial.(0) in
  check_int "prime product" 7 (Array.fold_left ( * ) 1 prime);
  (* the CPU heuristic's targets [1; 1; 1] collapse a prime extent to
     the outermost level *)
  let cpu = Space.make (Ft_ir.Operators.gemm ~m:7 ~n:1024 ~k:8) Target.xeon_e5_2699_v4 in
  Alcotest.(check (array int)) "prime outer" [| 7; 1; 1; 1 |]
    (Heuristics.cpu_config cpu ~mid:2 ~inner:4 ~vec:8 ~rtile:1).spatial.(0)

let test_order_perms () =
  for id = 0 to Space.n_orders - 1 do
    let perm = Config.order_perm id in
    Alcotest.(check (list int)) "is a permutation of 0..2" [ 0; 1; 2 ]
      (List.sort compare (Array.to_list perm))
  done;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Config.order_perm: order_id out of range") (fun () ->
      ignore (Config.order_perm 6))

let test_config_key_and_copy () =
  let space = gemm_space Target.v100 in
  let rng = Ft_util.Rng.create 3 in
  let cfg = Space.random_config rng space in
  let copy = Config.copy cfg in
  check_bool "copy equal" true (Config.equal cfg copy);
  copy.spatial.(0).(0) <- copy.spatial.(0).(0) * 2;
  check_bool "deep copy" false (Config.equal cfg copy)

let test_directions_stable_and_complete () =
  let space = conv_space Target.v100 in
  let d1 = Neighborhood.directions space in
  let d2 = Neighborhood.directions space in
  check_bool "stable order" true (d1 = d2);
  (* batch axis has extent 1: no factor moves for it *)
  let batch_moves =
    List.filter
      (function
        | Neighborhood.Factor_shift { kind = `Spatial; axis = 0; _ } -> true
        | _ -> false)
      d1
  in
  check_int "no moves on extent-1 axis" 0 (List.length batch_moves);
  (* 3 non-trivial spatial axes x 12 + 3 reduce axes x 6 + order 2 + unroll 2 + inline 1 *)
  check_int "direction count" (36 + 18 + 2 + 2 + 1) (List.length d1)

let test_moves_stay_in_space () =
  let rng = Ft_util.Rng.create 17 in
  List.iter
    (fun target ->
      let space = conv_space target in
      for _ = 1 to 30 do
        let cfg = Space.random_config rng space in
        List.iter
          (fun (_, next) ->
            check_bool "neighbor valid" true (Space.valid space next))
          (Neighborhood.neighbors space cfg)
      done)
    all_targets

let test_factor_shift_conserves_product () =
  let space = gemm_space Target.v100 in
  let cfg = Space.default_config space in
  let move = Neighborhood.Factor_shift { kind = `Spatial; axis = 0; src = 0; dst = 2 } in
  match Neighborhood.apply space cfg move with
  | None -> Alcotest.fail "move should apply"
  | Some next ->
      check_int "product conserved" 64 (Array.fold_left ( * ) 1 next.spatial.(0));
      check_bool "changed" false (Config.equal cfg next)

let test_factor_shift_inverse () =
  let space = gemm_space Target.v100 in
  let cfg = Space.default_config space in
  let fwd = Neighborhood.Factor_shift { kind = `Spatial; axis = 0; src = 0; dst = 3 } in
  let bwd = Neighborhood.Factor_shift { kind = `Spatial; axis = 0; src = 3; dst = 0 } in
  match Neighborhood.apply space cfg fwd with
  | None -> Alcotest.fail "forward should apply"
  | Some mid -> (
      match Neighborhood.apply space mid bwd with
      | None -> Alcotest.fail "backward should apply"
      | Some back -> check_bool "round trip" true (Config.equal cfg back))

let test_invalid_moves_rejected () =
  let space = gemm_space Target.v100 in
  let cfg = Space.default_config space in
  (* default has factor 1 at level 3: cannot shift a prime out of it *)
  check_bool "no prime to move" true
    (Neighborhood.apply space cfg
       (Neighborhood.Factor_shift { kind = `Spatial; axis = 0; src = 3; dst = 0 })
    = None);
  check_bool "order underflow" true
    (Neighborhood.apply space cfg (Neighborhood.Order_step (-1)) = None);
  check_bool "gpu inline toggle rejected without producers" true
    (Neighborhood.apply space cfg Neighborhood.Inline_toggle = None)

let test_features_fixed_dim () =
  let space = conv_space Target.v100 in
  let rng = Ft_util.Rng.create 23 in
  let dim = Space.feature_dim space in
  check_bool "positive" true (dim > 10);
  for _ = 1 to 20 do
    let cfg = Space.random_config rng space in
    check_int "same dim" dim (Array.length (Space.features space cfg))
  done

let test_primitives_render () =
  List.iter
    (fun target ->
      let space = conv_space target in
      let prims = Primitive.of_config space (Space.default_config space) in
      check_bool "non-empty" true (List.length prims > 3);
      let rendered = String.concat "\n" (List.map Primitive.to_string prims) in
      let expect =
        match target with
        | Target.Gpu _ -> [ "bind"; "cache"; "split" ]
        | Target.Cpu _ -> [ "parallel"; "fuse"; "split" ]
        | Target.Fpga _ -> [ "pipeline"; "partition"; "buffer" ]
      in
      let contains haystack needle =
        let n = String.length needle and h = String.length haystack in
        let rec go i =
          i + n <= h && (String.equal (String.sub haystack i n) needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun needle ->
          check_bool (Target.name target ^ " has " ^ needle) true
            (contains rendered needle))
        expect)
    all_targets

let test_config_io_roundtrip () =
  let rng = Ft_util.Rng.create 31 in
  List.iter
    (fun target ->
      let space = conv_space target in
      for _ = 1 to 25 do
        let cfg = Space.random_config rng space in
        let text = Config_io.to_string cfg in
        match Config_io.of_string text with
        | Error msg -> Alcotest.fail msg
        | Ok parsed -> check_bool "roundtrip" true (Config.equal cfg parsed)
      done)
    all_targets

let test_config_io_errors () =
  check_bool "garbage rejected" true (Result.is_error (Config_io.of_string "nonsense"));
  check_bool "missing field" true (Result.is_error (Config_io.of_string "s=4,4 r=2"));
  let space = gemm_space Target.v100 in
  let other = conv_space Target.v100 in
  let text = Config_io.to_string (Space.default_config other) in
  check_bool "wrong space rejected" true
    (Result.is_error (Config_io.of_string_for space text))

(* The strict parser: a truncated or hand-edited log line must fail
   loudly instead of silently yielding a schedule the log never
   contained. *)
let test_config_io_strict () =
  let good = Config_io.to_string (Space.default_config (gemm_space Target.v100)) in
  check_bool "well-formed accepted" true (Result.is_ok (Config_io.of_string good));
  check_bool "duplicate field rejected" true
    (Result.is_error (Config_io.of_string (good ^ " o=2")));
  check_bool "unknown field rejected" true
    (Result.is_error (Config_io.of_string (good ^ " z=1")));
  check_bool "trailing garbage rejected" true
    (Result.is_error (Config_io.of_string (good ^ " garbage")));
  check_bool "non-numeric value rejected" true
    (Result.is_error (Config_io.of_string "s=4,x r=2 o=0 u=0 f=0 v=0 i=0 p=0"));
  (* Only what [to_string] prints parses back, and the error names the
     field. *)
  let edit field value =
    String.concat " "
      (List.map
         (fun token ->
           if String.starts_with ~prefix:(field ^ "=") token then field ^ "=" ^ value
           else token)
         (String.split_on_char ' ' good))
  in
  List.iter
    (fun (field, value) ->
      match Config_io.of_string (edit field value) with
      | Ok _ -> Alcotest.failf "%s=%s accepted" field value
      | Error msg ->
          check_bool
            (Printf.sprintf "%s=%s names its field" field value)
            true
            (String.starts_with
               ~prefix:(Printf.sprintf "Config_io.of_string: field %s:" field)
               msg))
    [ ("v", "7"); ("v", "-1"); ("i", "-3"); ("i", "2"); ("o", "0x0"); ("o", "zz");
      ("u", "+1"); ("f", "1_0"); ("p", "0b1"); ("p", ""); ("o", "-");
      ("s", "0x4,4"); ("r", "2,-") ]

let test_cap_threads_on_awkward_extents () =
  (* T3D output 111 = 3 x 37 used to force 37x37 = 1369 threads. *)
  let graph =
    Ft_ir.Operators.conv3d_transposed ~batch:1 ~in_channels:3 ~out_channels:64
      ~depth:8 ~height:56 ~width:56 ~kernel:3 ~stride:2 ~pad:1 ()
  in
  let space = Space.make graph Target.v100 in
  List.iter
    (fun threads_per_axis ->
      let cfg =
        Heuristics.gpu_config space ~threads_per_axis ~vthread:2 ~inner:2 ~rtile:8
      in
      let threads = Config.product_level cfg.spatial 2 in
      check_bool "threads capped" true (threads <= 1024);
      check_bool "still in space" true (Space.valid space cfg))
    [ 8; 16; 32 ]

let test_target_peaks () =
  Alcotest.(check (float 1.)) "V100 peak" 15667.2 (Target.peak_gflops Target.v100);
  check_bool "CPU peak plausible" true
    (Target.peak_gflops Target.xeon_e5_2699_v4 > 1000.);
  check_bool "FPGA peak plausible" true (Target.peak_gflops Target.vu9p > 300.)

let qcheck_random_config_valid =
  QCheck.Test.make ~name:"random configs valid" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let space = conv_space Target.v100 in
      Space.valid space (Space.random_config rng space))

(* Serialization round-trip over random configs from random spaces —
   the tuning log depends on [of_string (to_string cfg) = Ok cfg]. *)
let qcheck_config_io_roundtrip =
  QCheck.Test.make ~name:"config_io roundtrip" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let graph =
        match Ft_util.Rng.int rng 3 with
        | 0 ->
            Ft_ir.Operators.gemm
              ~m:(16 * (1 + Ft_util.Rng.int rng 8))
              ~n:(8 * (1 + Ft_util.Rng.int rng 8))
              ~k:(4 * (1 + Ft_util.Rng.int rng 8))
        | 1 ->
            Ft_ir.Operators.conv2d ~batch:1
              ~in_channels:(4 * (1 + Ft_util.Rng.int rng 4))
              ~out_channels:(8 * (1 + Ft_util.Rng.int rng 4))
              ~height:(6 + Ft_util.Rng.int rng 10)
              ~width:(6 + Ft_util.Rng.int rng 10)
              ~kernel:3 ~pad:1 ()
        | _ ->
            Ft_ir.Operators.gemv
              ~m:(16 * (1 + Ft_util.Rng.int rng 16))
              ~k:(4 * (1 + Ft_util.Rng.int rng 16))
      in
      let target = Ft_util.Rng.choose rng all_targets in
      let space = Space.make graph target in
      let cfg = Space.random_config rng space in
      let text = Config_io.to_string cfg in
      match Config_io.of_string text with
      | Ok parsed -> Config.equal cfg parsed && String.equal (Config_io.to_string parsed) text
      | Error _ -> false)

(* The visited set and the eval cache hash configs ([Config.Tbl]);
   transfer dedup and the fault plan use the string key.  Both must
   separate exactly the structurally distinct points.
   Injectivity: two random configs share a key exactly when they are
   structurally equal. *)
let structurally_equal (a : Config.t) (b : Config.t) =
  a.spatial = b.spatial && a.reduce = b.reduce && a.order_id = b.order_id
  && a.unroll_id = b.unroll_id
  && a.fuse_levels = b.fuse_levels
  && a.vectorize = b.vectorize && a.inline = b.inline
  && a.partition_id = b.partition_id

let qcheck_key_injective =
  QCheck.Test.make ~name:"key injective on random config pairs" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let space = conv_space (Ft_util.Rng.choose rng all_targets) in
      let a = Space.random_config rng space in
      let b = Space.random_config rng space in
      String.equal (Config.compute_key a) (Config.compute_key b) = structurally_equal a b)

(* [equal] agrees with the string key, and [hash] with [equal], on a
   random config against its copy, a second random config, its
   neighbours (one move away: near-collisions) and the neighbours of
   one neighbour (the inverse move rebuilds [a] by another path). *)
let qcheck_equal_hash_agree_with_key =
  QCheck.Test.make ~name:"equal <=> same key, equal => same hash" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let space = conv_space (Ft_util.Rng.choose rng all_targets) in
      let a = Space.random_config rng space in
      let near = List.map snd (Neighborhood.neighbors space a) in
      let others =
        Config.copy a :: Space.random_config rng space
        :: (near @ List.map snd (Neighborhood.neighbors space (List.hd near)))
      in
      List.for_all
        (fun b ->
          let eq = Config.equal a b in
          eq = String.equal (Config.compute_key a) (Config.compute_key b)
          && eq = structurally_equal a b
          && ((not eq) || Config.hash a = Config.hash b))
        others)

(* [Neighborhood.apply] as it was when every move deep-copied its
   source: the oracle for the sharing version. *)
let copying_apply (space : Space.t) (cfg : Config.t) move =
  match (move : Neighborhood.move) with
  | Factor_shift { kind; axis; src; dst } ->
      let factors = match kind with `Spatial -> cfg.spatial | `Reduce -> cfg.reduce in
      if axis >= Array.length factors then None
      else
        let parts = factors.(axis) in
        if src >= Array.length parts || dst >= Array.length parts then None
        else (
          match Ft_util.Mathx.smallest_prime_factor parts.(src) with
          | None -> None
          | Some p ->
              let cfg = Config.copy cfg in
              let parts =
                match kind with `Spatial -> cfg.spatial.(axis) | `Reduce -> cfg.reduce.(axis)
              in
              parts.(src) <- parts.(src) / p;
              parts.(dst) <- parts.(dst) * p;
              Some cfg)
  | Order_step d ->
      let order_id = cfg.order_id + d in
      if order_id < 0 || order_id >= Space.n_orders then None
      else Some { (Config.copy cfg) with order_id }
  | Unroll_step d ->
      let unroll_id = cfg.unroll_id + d in
      if unroll_id < 0 || unroll_id >= Array.length Space.unroll_depths then None
      else Some { (Config.copy cfg) with unroll_id }
  | Fuse_step d ->
      let fuse_levels = cfg.fuse_levels + d in
      if fuse_levels < 1 || fuse_levels > 2 then None
      else Some { (Config.copy cfg) with fuse_levels }
  | Vectorize_toggle -> Some { (Config.copy cfg) with vectorize = not cfg.vectorize }
  | Inline_toggle ->
      if space.has_producers then Some { (Config.copy cfg) with inline = not cfg.inline }
      else None
  | Partition_step d ->
      let partition_id = cfg.partition_id + d in
      if partition_id < 0 || partition_id >= Array.length Space.partitions then None
      else Some { (Config.copy cfg) with partition_id }

(* Every move, including out-of-range ones, gives what the copying
   version gives, and no chain of moves changes a config it started
   from. *)
let qcheck_apply_matches_copying_oracle =
  QCheck.Test.make ~name:"apply == copying apply, source unchanged" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let space =
        (if Ft_util.Rng.bool rng then conv_space else gemm_space)
          (Ft_util.Rng.choose rng all_targets)
      in
      let moves =
        Neighborhood.directions space
        @ Neighborhood.
            [
              Factor_shift { kind = `Spatial; axis = 9; src = 0; dst = 1 };
              Factor_shift { kind = `Reduce; axis = 0; src = 0; dst = 7 };
              Order_step 6; Unroll_step (-4); Fuse_step 1; Inline_toggle; Partition_step 3;
            ]
      in
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some a, Some b -> Config.equal a b
        | _ -> false
      in
      let cfg = Space.random_config rng space in
      let snapshot = Config.copy cfg in
      let ok = ref true in
      (* Two steps deep: second-generation neighbours share arrays with
         the first generation and with [cfg]. *)
      List.iter
        (fun move ->
          let next = Neighborhood.apply space cfg move in
          ok := !ok && same next (copying_apply space cfg move);
          Option.iter
            (fun next ->
              let before = Config.copy next in
              List.iter
                (fun move ->
                  ok :=
                    !ok
                    && same (Neighborhood.apply space next move) (copying_apply space next move))
                moves;
              ok := !ok && Config.equal next before)
            next)
        moves;
      !ok && Config.equal cfg snapshot)

let () =
  Alcotest.run "ft_schedule"
    [
      ( "space",
        [
          Alcotest.test_case "size closed form" `Quick test_space_size_closed_form;
          Alcotest.test_case "hardware knobs" `Quick test_space_size_grows_with_hardware_knobs;
          Alcotest.test_case "configs valid" `Quick test_default_and_random_valid;
          Alcotest.test_case "heuristic seeds" `Quick test_heuristic_seeds_valid;
          Alcotest.test_case "split near" `Quick test_split_near;
          Alcotest.test_case "feature dim" `Quick test_features_fixed_dim;
          QCheck_alcotest.to_alcotest qcheck_random_config_valid;
        ] );
      ( "config",
        [
          Alcotest.test_case "order perms" `Quick test_order_perms;
          Alcotest.test_case "key and copy" `Quick test_config_key_and_copy;
          QCheck_alcotest.to_alcotest qcheck_key_injective;
          QCheck_alcotest.to_alcotest qcheck_equal_hash_agree_with_key;
        ] );
      ( "neighborhood",
        [
          Alcotest.test_case "directions" `Quick test_directions_stable_and_complete;
          Alcotest.test_case "moves stay in space" `Quick test_moves_stay_in_space;
          Alcotest.test_case "product conserved" `Quick test_factor_shift_conserves_product;
          Alcotest.test_case "inverse moves" `Quick test_factor_shift_inverse;
          Alcotest.test_case "invalid rejected" `Quick test_invalid_moves_rejected;
          QCheck_alcotest.to_alcotest qcheck_apply_matches_copying_oracle;
        ] );
      ( "targets+primitives",
        [
          Alcotest.test_case "primitive rendering" `Quick test_primitives_render;
          Alcotest.test_case "peak gflops" `Quick test_target_peaks;
        ] );
      ( "config_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_config_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_config_io_errors;
          Alcotest.test_case "strict parse" `Quick test_config_io_strict;
          QCheck_alcotest.to_alcotest qcheck_config_io_roundtrip;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "thread cap" `Quick test_cap_threads_on_awkward_extents;
        ] );
    ]
