(* The persistent schedule repository (tuning log): JSON round-trips,
   tolerant loading, exact/nearest queries, cross-shape transfer, and
   the cardinal invariant that the store never perturbs search
   results. *)

open Ft_store

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_log () = Filename.temp_file "ft_store_test" ".jsonl"

let gemm ~m ~n ~k = Ft_ir.Operators.gemm ~m ~n ~k
let target = Ft_schedule.Target.v100

let space_of graph = Ft_schedule.Space.make graph target

let record_of ?(method_name = "Q-method") ?(seed = 2020) ?(best = 100.)
    ?(sim_time_s = 12.5) ?(n_evals = 40) space =
  let cfg = Ft_schedule.Space.default_config space in
  {
    Record.key = Record.key_of_space space;
    method_name;
    seed;
    best_value = best;
    sim_time_s;
    n_evals;
    config = Ft_schedule.Config_io.to_string cfg;
    source = "analytical";
  }

(* --- JSON --- *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 3.5;
      Json.Num (-0.1);
      Json.Num 1e300;
      Json.Str "plain";
      Json.Str "esc \"quotes\" \\ and\ncontrol\tchars";
      Json.Arr [ Json.Num 1.; Json.Num 2.; Json.Str "x" ];
      Json.Obj [ ("a", Json.Num 1.); ("b", Json.Arr []); ("c", Json.Obj []) ];
    ]
  in
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok parsed -> check_bool "roundtrip" true (parsed = v)
      | Error msg -> Alcotest.fail msg)
    cases

let test_json_rejects_garbage () =
  List.iter
    (fun text ->
      check_bool ("rejects " ^ text) true
        (Result.is_error (Json.of_string text)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "{\"a\":1} trailing"; "\"unterminated" ]

let qcheck_json_float_roundtrip =
  QCheck.Test.make ~name:"float values roundtrip bit-for-bit" ~count:500
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.of_string (Json.to_string (Json.Num f)) with
      | Ok (Json.Num g) -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | _ -> false)

(* --- records --- *)

let test_record_roundtrip () =
  let space = space_of (gemm ~m:64 ~n:32 ~k:16) in
  let record = record_of ~best:81.607903484605245 space in
  match Record.of_json (Record.to_json record) with
  | Ok parsed ->
      check_bool "key" true (Record.key_equal record.key parsed.Record.key);
      check_string "method" record.method_name parsed.method_name;
      check_int "seed" record.seed parsed.seed;
      check_bool "best bit-for-bit" true
        (Int64.equal
           (Int64.bits_of_float record.best_value)
           (Int64.bits_of_float parsed.best_value));
      check_int "n_evals" record.n_evals parsed.n_evals;
      check_string "config" record.config parsed.config
  | Error msg -> Alcotest.fail msg

let qcheck_record_roundtrip =
  QCheck.Test.make ~name:"record roundtrip over random configs" ~count:100
    QCheck.(pair (int_range 0 10_000) (pair float float))
    (fun (seed, (best, sim)) ->
      QCheck.assume (Float.is_finite best && Float.is_finite sim);
      let rng = Ft_util.Rng.create seed in
      let space =
        space_of
          (gemm
             ~m:(16 * (1 + Ft_util.Rng.int rng 8))
             ~n:(16 * (1 + Ft_util.Rng.int rng 8))
             ~k:(8 * (1 + Ft_util.Rng.int rng 8)))
      in
      let record =
        {
          Record.key = Record.key_of_space space;
          method_name = "Q-method";
          seed;
          best_value = best;
          sim_time_s = sim;
          n_evals = Ft_util.Rng.int rng 1000;
          config =
            Ft_schedule.Config_io.to_string (Ft_schedule.Space.random_config rng space);
          source = "analytical";
        }
      in
      match Record.of_json (Record.to_json record) with
      | Ok parsed ->
          Record.key_equal record.key parsed.Record.key
          && Int64.equal
               (Int64.bits_of_float record.best_value)
               (Int64.bits_of_float parsed.best_value)
          && String.equal record.config parsed.config
      | Error _ -> false)

let test_record_rejects_malformed () =
  List.iter
    (fun text ->
      check_bool ("rejects " ^ text) true (Result.is_error (Record.of_json text)))
    [
      "";
      "not json";
      "[1,2,3]";
      "{\"graph\":\"g\"}";
      (* best as a string, not a number *)
      "{\"graph\":\"g\",\"op\":\"gemm\",\"target\":\"V100\",\"spatial\":[4],\
       \"reduce\":[4],\"method\":\"Q-method\",\"seed\":1,\"best\":\"fast\",\
       \"sim_time_s\":1,\"n_evals\":1,\"config\":\"c\"}";
    ]

(* --- store persistence --- *)

let test_append_and_reload () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let store = Store.create ~path () in
      Store.add store (record_of ~best:10. (space_of (gemm ~m:64 ~n:64 ~k:64)));
      Store.add store (record_of ~best:20. (space_of (gemm ~m:128 ~n:128 ~k:128)));
      let reloaded = Store.load path in
      check_int "both records survive" 2 (List.length (Store.records reloaded));
      check_int "no issues" 0 (List.length (Store.issues reloaded));
      let values = List.map (fun r -> r.Record.best_value) (Store.records reloaded) in
      check_bool "chronological order" true (values = [ 10.; 20. ]))

let test_missing_file_is_empty () =
  let store = Store.create ~path:"/nonexistent/dir/never.jsonl" () in
  check_int "empty" 0 (List.length (Store.records store))

let test_malformed_lines_skipped () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let good = Record.to_json (record_of (space_of (gemm ~m:64 ~n:64 ~k:64))) in
      let oc = open_out path in
      output_string oc (good ^ "\n");
      output_string oc "{\"torn\":\n";
      output_string oc "plain garbage\n";
      output_string oc (good ^ "\n");
      close_out oc;
      let store = Store.load path in
      check_int "good lines kept" 2 (List.length (Store.records store));
      let issues = Store.issues store in
      check_int "bad lines reported" 2 (List.length issues);
      Alcotest.(check (list int)) "1-based line numbers" [ 2; 3 ]
        (List.map (fun i -> i.Store.line) issues))

(* --- queries --- *)

let test_best_exact () =
  let store = Store.create () in
  let space = space_of (gemm ~m:64 ~n:64 ~k:64) in
  let key = Record.key_of_space space in
  Store.add store (record_of ~best:10. space);
  Store.add store (record_of ~best:30. space);
  Store.add store (record_of ~best:20. space);
  Store.add store (record_of ~method_name:"AutoTVM" ~best:99. space);
  Store.add store (record_of ~best:50. (space_of (gemm ~m:128 ~n:64 ~k:64)));
  (match Store.best_exact ~method_name:"Q-method" store key with
  | Some r -> Alcotest.(check (float 0.)) "highest same-method value" 30. r.best_value
  | None -> Alcotest.fail "expected a hit");
  (match Store.best_exact ~method_name:"AutoTVM" store key with
  | Some r -> Alcotest.(check (float 0.)) "method filter" 99. r.best_value
  | None -> Alcotest.fail "expected an AutoTVM hit");
  check_bool "unknown method misses" true
    (Store.best_exact ~method_name:"P-method" store key = None)

let test_nearest () =
  let store = Store.create () in
  let here = Record.key_of_space (space_of (gemm ~m:64 ~n:64 ~k:64)) in
  Store.add store (record_of ~best:1. (space_of (gemm ~m:64 ~n:64 ~k:64)));
  Store.add store (record_of ~best:2. (space_of (gemm ~m:128 ~n:128 ~k:128)));
  Store.add store (record_of ~best:7. (space_of (gemm ~m:128 ~n:128 ~k:128)));
  Store.add store (record_of ~best:3. (space_of (gemm ~m:2048 ~n:2048 ~k:2048)));
  Store.add store (record_of ~best:4. (space_of (Ft_ir.Operators.gemv ~m:64 ~k:64)));
  let near = Store.nearest ~method_name:"Q-method" store here in
  check_int "one per shape, exact+other-op excluded" 2 (List.length near);
  (match near with
  | first :: _ ->
      check_string "closest shape first" "gemm_128x128x128" first.Record.key.graph;
      Alcotest.(check (float 0.)) "best of that shape" 7. first.best_value
  | [] -> Alcotest.fail "expected neighbors");
  check_int "limit respected" 1
    (List.length (Store.nearest ~method_name:"Q-method" ~limit:1 store here))

(* Only the exact key is excluded: the key's own extents logged under
   another graph name are a transfer candidate at distance 0. *)
let test_nearest_same_shape_other_graph () =
  let store = Store.create () in
  let space = space_of (gemm ~m:64 ~n:64 ~k:64) in
  let here = Record.key_of_space space in
  let alias = { (record_of ~best:5. space) with key = { here with graph = "gemm_alias" } } in
  Store.add store (record_of ~best:9. space);
  Store.add store alias;
  Store.add store (record_of ~best:7. (space_of (gemm ~m:128 ~n:64 ~k:64)));
  match Store.nearest ~method_name:"Q-method" store here with
  | [ first; second ] ->
      check_string "same shape, other graph first" "gemm_alias" first.Record.key.graph;
      Alcotest.(check (float 0.)) "at distance 0" 0.
        (Record.shape_distance first.key here);
      check_string "then the next shape" "gemm_128x64x64" second.Record.key.graph
  | near -> Alcotest.failf "expected 2 neighbors, got %d" (List.length near)

(* Op ids render "op|target|ranks", so "a|b" on "c" and "a" on "b|c"
   share one; transfer candidates still never cross operators. *)
let test_nearest_colliding_op_ids () =
  let store = Store.create () in
  let space = space_of (gemm ~m:64 ~n:64 ~k:64) in
  let with_key op target spatial best =
    let r = record_of ~best space in
    { r with key = { r.key with graph = op ^ "/" ^ target; op; target; spatial } }
  in
  let here = (with_key "a" "b|c" [ 16; 16 ] 0.).key in
  check_string "op ids collide" (Index.op_id here)
    (Index.op_id (with_key "a|b" "c" [ 16; 16 ] 0.).key);
  Store.add store (with_key "a|b" "c" [ 16; 32 ] 9.);
  Store.add store (with_key "a" "b|c" [ 16; 64 ] 1.);
  match Store.nearest store here with
  | [ only ] -> check_string "same operator only" "a" only.Record.key.op
  | near -> Alcotest.failf "expected 1 neighbor, got %d" (List.length near)

(* --- transfer --- *)

(* A logged config, refitted onto [space] as the exact hit's seed. *)
let refit space cfg =
  let logged =
    { (record_of space) with Record.config = Ft_schedule.Config_io.to_string cfg }
  in
  match Transfer.seeds_of_records ~exact:(Some logged) ~near:[] space with
  | [] -> None
  | [ seed ] -> Some seed
  | _ -> Alcotest.fail "one record yields at most one seed"

let test_refit_identity_and_cross_shape () =
  let small = space_of (gemm ~m:64 ~n:64 ~k:64) in
  let big = space_of (gemm ~m:128 ~n:256 ~k:64) in
  let rng = Ft_util.Rng.create 5 in
  for _ = 1 to 20 do
    let cfg = Ft_schedule.Space.random_config rng small in
    (match refit small cfg with
    | Some same -> check_bool "identity refit" true (Ft_schedule.Config.equal cfg same)
    | None -> Alcotest.fail "valid config must refit to itself");
    match refit big cfg with
    | Some moved -> check_bool "refit valid in new space" true
        (Ft_schedule.Space.valid big moved)
    | None -> Alcotest.fail "same-rank refit must succeed"
  done;
  let gemv = space_of (Ft_ir.Operators.gemv ~m:64 ~k:64) in
  let cfg = Ft_schedule.Space.default_config small in
  check_bool "rank mismatch refuses" true (refit gemv cfg = None)

let test_transfer_seeds_valid () =
  let store = Store.create () in
  Store.add store (record_of ~best:5. (space_of (gemm ~m:128 ~n:128 ~k:128)));
  Store.add store (record_of ~best:6. (space_of (gemm ~m:256 ~n:256 ~k:256)));
  (* a corrupt config must be dropped, not raised *)
  let broken = { (record_of ~best:9. (space_of (gemm ~m:512 ~n:512 ~k:512)))
                 with Record.config = "not a config" } in
  Store.add store broken;
  let space = space_of (gemm ~m:64 ~n:64 ~k:64) in
  let seeds = Transfer.seeds ~method_name:"Q-method" store space in
  check_bool "some seeds" true (seeds <> []);
  List.iter
    (fun cfg -> check_bool "seed valid" true (Ft_schedule.Space.valid space cfg))
    seeds

(* --- checkpoints --- *)

let checkpoint_of ?(run_id = "g|gemm|V100|Q-method|seed=1") ?(trial = 5)
    ?(best = 123.456) () =
  {
    Checkpoint.run_id;
    trial;
    n_evals = 42;
    clock_s = 12.75;
    best_value = best;
    config = "s=4,1,32,1;8,1,16,1 r=8,1,16 o=0";
    rng_state = 0x9E3779B97F4A7C15L;
  }

(* A checkpoint appended to a fresh file and read back as its run's
   latest. *)
let reloaded (ck : Checkpoint.t) =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.append path ck;
      match Checkpoint.latest ~run_id:ck.run_id path with
      | Some parsed, [] -> Ok parsed
      | None, _ -> Error "no checkpoint read back"
      | Some _, _ :: _ -> Error "a line was skipped")

let test_checkpoint_roundtrip () =
  let ck = checkpoint_of () in
  match reloaded ck with
  | Ok parsed ->
      check_string "run_id" ck.run_id parsed.Checkpoint.run_id;
      check_int "trial" ck.trial parsed.trial;
      check_int "n_evals" ck.n_evals parsed.n_evals;
      check_bool "best bit-for-bit" true
        (Int64.equal
           (Int64.bits_of_float ck.best_value)
           (Int64.bits_of_float parsed.best_value));
      check_string "config" ck.config parsed.config;
      (* int64 RNG state cannot travel as a JSON double — it must
         round-trip exactly through the decimal-string encoding. *)
      check_bool "rng state exact" true (Int64.equal ck.rng_state parsed.rng_state)
  | Error msg -> Alcotest.fail msg

let qcheck_checkpoint_rng_roundtrip =
  QCheck.Test.make ~name:"any int64 rng state roundtrips" ~count:200
    QCheck.int64 (fun state ->
      match reloaded { (checkpoint_of ()) with rng_state = state } with
      | Ok parsed -> Int64.equal state parsed.Checkpoint.rng_state
      | Error _ -> false)

let test_checkpoint_latest_tolerant () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.append path (checkpoint_of ~trial:2 ~best:10. ());
      Checkpoint.append path (checkpoint_of ~run_id:"other|run" ~trial:9 ());
      Checkpoint.append path (checkpoint_of ~trial:6 ~best:30. ());
      (* a torn final line, as a crash mid-append would leave *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"run\":\"torn";
      close_out oc;
      let ck, issues =
        Checkpoint.latest ~run_id:"g|gemm|V100|Q-method|seed=1" path
      in
      (match ck with
      | Some ck ->
          check_int "newest matching wins" 6 ck.Checkpoint.trial;
          Alcotest.(check (float 0.)) "its best" 30. ck.best_value
      | None -> Alcotest.fail "expected a checkpoint");
      check_int "torn line reported, not fatal" 1 (List.length issues);
      check_bool "missing file is an empty trail" true
        (Checkpoint.latest ~run_id:"x" "/nonexistent/never.jsonl" = (None, [])))

(* A crash that tears the final line must not cost the next record:
   the resumed run's first append starts on a line of its own. *)
let test_append_after_torn_line () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.append path (checkpoint_of ~run_id:"before" ~trial:6 ());
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"run\":\"torn";
      close_out oc;
      Checkpoint.append path (checkpoint_of ~run_id:"after" ~trial:11 ());
      let trial run_id =
        Option.map (fun (ck : Checkpoint.t) -> ck.trial)
          (fst (Checkpoint.latest ~run_id path))
      in
      Alcotest.(check (list (option int))) "both records load" [ Some 6; Some 11 ]
        [ trial "before"; trial "after" ];
      check_int "only the fragment is skipped" 1
        (List.length (snd (Checkpoint.latest ~run_id:"after" path))))

(* --- store invisibility: logging must never change search results --- *)

let search_with ?store ?(reuse = false) ?(n_parallel = 1) graph =
  let options =
    { Flextensor.default_options with n_trials = 12; n_parallel }
  in
  Flextensor.optimize ~options ?store ~reuse graph target

let test_store_invisible_to_search () =
  List.iter
    (fun n_parallel ->
      let cold = search_with ~n_parallel (gemm ~m:64 ~n:64 ~k:64) in
      let path = temp_log () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let store = Store.create ~path () in
          let logged = search_with ~store ~n_parallel (gemm ~m:64 ~n:64 ~k:64) in
          check_bool "identical best config" true
            (Ft_schedule.Config.equal cold.config logged.config);
          check_bool "bit-for-bit value" true
            (Int64.equal
               (Int64.bits_of_float cold.perf_value)
               (Int64.bits_of_float logged.perf_value));
          check_int "same eval count" cold.n_evals logged.n_evals;
          check_bool "search was logged" true (List.length (Store.records store) = 1)))
    [ 1; 4 ]

let test_exact_hit_reuse () =
  let store = Store.create () in
  let first = search_with ~store (gemm ~m:64 ~n:64 ~k:64) in
  check_bool "cold run searched" true (first.provenance = Flextensor.Searched);
  let again = search_with ~store ~reuse:true (gemm ~m:64 ~n:64 ~k:64) in
  check_bool "reused" true (again.provenance = Flextensor.Reused);
  check_int "zero fresh measurements" 0 again.n_evals;
  Alcotest.(check (float 0.)) "zero simulated time" 0. again.sim_time_s;
  check_bool "identical best value" true
    (Int64.equal
       (Int64.bits_of_float first.perf_value)
       (Int64.bits_of_float again.perf_value));
  check_bool "identical config" true
    (Ft_schedule.Config.equal first.config again.config);
  check_int "reuse did not append" 1 (List.length (Store.records store))

(* Acceptance (deterministic seeded runs on Suites gemm shapes):
   warm-starting 64^3 from a 128^3 tuning at an equal eval budget is
   at least as good as the cold search.  Warm seeds genuinely steer the
   trajectory, so a single seed can go either way: over seeds 1-30 the
   warm start must match or beat the cold search on at least 20, and
   its geometric-mean best value must be at least the cold one's. *)
let test_warm_start_not_worse () =
  let tune seed graph store reuse =
    let options = { Flextensor.default_options with seed; n_trials = 12 } in
    Flextensor.optimize ~options ?store ~reuse graph target
  in
  let pairs =
    List.init 30 (fun i ->
        let seed = i + 1 in
        let store = Store.create () in
        ignore (tune seed (gemm ~m:128 ~n:128 ~k:128) (Some store) false);
        let cold = tune seed (gemm ~m:64 ~n:64 ~k:64) None false in
        let warm = tune seed (gemm ~m:64 ~n:64 ~k:64) (Some store) true in
        (match warm.provenance with
        | Flextensor.Transferred n -> check_bool "some transfer seeds" true (n > 0)
        | _ -> Alcotest.failf "seed %d: expected a transferred warm start" seed);
        (warm.perf_value, cold.perf_value))
  in
  let wins = List.length (List.filter (fun (warm, cold) -> warm >= cold) pairs) in
  let log_mean f = List.fold_left (fun acc p -> acc +. log (f p)) 0. pairs /. 30. in
  if wins < 20 then Alcotest.failf "warm >= cold on %d of 30 seeds, want >= 20" wins;
  check_bool "geomean warm >= geomean cold" true (log_mean fst >= log_mean snd)

let test_runner_reuses_layers () =
  let store = Store.create () in
  let layers =
    let conv out_channels =
      Ft_ir.Operators.conv2d ~batch:1 ~in_channels:8 ~out_channels ~height:14
        ~width:14 ~kernel:3 ~pad:1 ()
    in
    [ ("L1", conv 16); ("L1", conv 16); ("L2", conv 32) ]
  in
  let cold =
    Ft_dnn.Runner.run ~max_evals:40 ~store ~network:"tiny" ~target
      layers "Q-method"
  in
  check_int "cold run reuses nothing" 0 cold.reused_layers;
  let warm =
    Ft_dnn.Runner.run ~max_evals:40 ~store ~network:"tiny" ~target
      layers "Q-method"
  in
  check_int "warm run reuses every layer" 2 warm.reused_layers;
  Alcotest.(check (float 0.)) "same total latency" cold.total_s warm.total_s

let () =
  Alcotest.run "ft_store"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          QCheck_alcotest.to_alcotest qcheck_json_float_roundtrip;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_record_rejects_malformed;
          QCheck_alcotest.to_alcotest qcheck_record_roundtrip;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "append and reload" `Quick test_append_and_reload;
          Alcotest.test_case "missing file" `Quick test_missing_file_is_empty;
          Alcotest.test_case "malformed lines" `Quick test_malformed_lines_skipped;
        ] );
      ( "queries",
        [
          Alcotest.test_case "best exact" `Quick test_best_exact;
          Alcotest.test_case "nearest" `Quick test_nearest;
          Alcotest.test_case "nearest same shape, other graph" `Quick
            test_nearest_same_shape_other_graph;
          Alcotest.test_case "nearest colliding op ids" `Quick
            test_nearest_colliding_op_ids;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_checkpoint_rng_roundtrip;
          Alcotest.test_case "latest tolerant" `Quick
            test_checkpoint_latest_tolerant;
          Alcotest.test_case "append after torn line" `Quick
            test_append_after_torn_line;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "refit" `Quick test_refit_identity_and_cross_shape;
          Alcotest.test_case "seeds valid" `Quick test_transfer_seeds_valid;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "store invisible" `Quick test_store_invisible_to_search;
          Alcotest.test_case "exact hit" `Quick test_exact_hit_reuse;
          Alcotest.test_case "warm start" `Quick test_warm_start_not_worse;
          Alcotest.test_case "runner layers" `Quick test_runner_reuses_layers;
        ] );
    ]
