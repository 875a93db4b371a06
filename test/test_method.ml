(* The search-method table: listing, lookup, the method-name
   stability contract against the tuning log, and the bit-for-bit
   pre-refactor pins for the original four methods. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let gemm () = Flextensor.Operators.gemm ~m:64 ~n:64 ~k:64

let conv () =
  Flextensor.Operators.conv2d ~batch:1 ~in_channels:8 ~out_channels:16
    ~height:14 ~width:14 ~kernel:3 ~pad:1 ()

(* -- table ---------------------------------------------------------- *)

let names () = List.map (fun (m : Flextensor.Method.t) -> m.name) Flextensor.Method.all

let test_builtins_registered () =
  Alcotest.(check (list string))
    "table order"
    [ "Q-method"; "P-method"; "random"; "CD-method"; "AutoTVM"; "AutoTVM-2019" ]
    (names ())

let test_find_by_name_and_key () =
  List.iter
    (fun (m : Flextensor.Method.t) ->
      check_string ("find " ^ m.name) m.name (Flextensor.Method.find_exn m.name).name;
      check_string ("find key " ^ m.key) m.name (Flextensor.Method.find_exn m.key).name)
    Flextensor.Method.all;
  Alcotest.check_raises "unknown name raises, listing the known names"
    (Invalid_argument
       "unknown search method \"no-such-method\" (known: Q-method, P-method, random, \
        CD-method, AutoTVM, AutoTVM-2019)")
    (fun () -> ignore (Flextensor.Method.find_exn "no-such-method"))

(* The table is a literal: its keys and names are pairwise distinct
   (and no key is another row's name, which [find] would resolve to
   that row first), so every key and every name finds its own row. *)
let test_fixed_table () =
  let all = Flextensor.Method.all in
  let keys = List.map (fun (m : Flextensor.Method.t) -> m.key) all in
  let distinct xs = List.length (List.sort_uniq String.compare xs) = List.length xs in
  check_bool "keys distinct" true (distinct keys);
  check_bool "names distinct" true (distinct (names ()));
  List.iter
    (fun (m : Flextensor.Method.t) ->
      List.iter
        (fun (other : Flextensor.Method.t) ->
          if other.name <> m.name then
            check_bool (m.key ^ " is not " ^ other.name) false (m.key = other.name))
        all)
    all;
  Alcotest.(check (list (pair string string)))
    "keys and names, in order"
    [
      ("q", "Q-method"); ("p", "P-method"); ("random", "random"); ("cd", "CD-method");
      ("autotvm", "AutoTVM"); ("autotvm-2019", "AutoTVM-2019");
    ]
    (List.combine keys (names ()));
  List.iter
    (fun (m : Flextensor.Method.t) ->
      List.iter
        (fun s -> check_string ("find " ^ s) m.name (Flextensor.Method.find_exn s).name)
        [ m.key; m.name ])
    all

(* -- method-name stability: every method name must round-trip
      through the tuning log (DESIGN.md §10: names are persisted in
      store records; renaming one orphans logged schedules). -------- *)

let test_names_round_trip_through_store () =
  let space = Flextensor.Space.make (gemm ()) Flextensor.Target.v100 in
  let key = Flextensor.Store_record.key_of_space space in
  let config =
    Flextensor.Config_io.to_string (Flextensor.Space.default_config space)
  in
  let store = Flextensor.Store.create () in
  List.iter
    (fun (m : Flextensor.Method.t) ->
      Flextensor.Store.add store
        {
          Flextensor.Store_record.key;
          method_name = m.name;
          seed = 2020;
          best_value = 1.0;
          sim_time_s = 1.0;
          n_evals = 1;
          config;
          source = "analytical";
        })
    Flextensor.Method.all;
  List.iter
    (fun (m : Flextensor.Method.t) ->
      match Flextensor.Store.best_exact ~method_name:m.name store key with
      | Some record ->
          check_string ("round-trips " ^ m.name) m.name record.method_name
      | None -> Alcotest.failf "method name %S lost by the store" m.name)
    Flextensor.Method.all

(* A run persists its row's name in two places: the logged record's
   method and the checkpoint trail's run id.  The run is selected by
   CLI key, so the name comes from the table alone. *)
let test_names_reach_log_and_checkpoint () =
  let graph = gemm () in
  let space = Flextensor.Space.make graph Flextensor.Target.v100 in
  List.iter
    (fun (m : Flextensor.Method.t) ->
      let path = Filename.temp_file "ft_method_ck" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let store = Flextensor.Store.create () in
          let options =
            { Flextensor.default_options with n_trials = 5; search = m.key; checkpoint = Some path }
          in
          ignore (Flextensor.optimize ~options ~store graph Flextensor.Target.v100);
          (match Flextensor.Store.records store with
          | [ record ] -> check_string ("logged method of " ^ m.key) m.name record.method_name
          | records -> Alcotest.failf "%s: %d records logged" m.key (List.length records));
          let run_id =
            Flextensor.Search_loop.run_id ~method_name:m.name
              { Flextensor.Search_loop.default_params with seed = options.seed }
              space
          in
          check_bool ("checkpoint run id of " ^ m.key) true
            (Option.is_some (fst (Flextensor.Checkpoint.latest ~run_id path)))))
    Flextensor.Method.all

(* -- bit-for-bit pins ----------------------------------------------- *)

(* Seeded results for the four original methods, captured on the
   commit before the Search_loop/registry refactor (seed 2020,
   n_trials 15, V100).  These must never drift: they are the
   refactor's bit-for-bit equivalence contract, and any change to the
   shared loop or a policy that moves them is a behavioral break.  The
   Q-method rows were re-pinned once, when the Q-network's training
   became one averaged AdaDelta step per round of 16 samples.  The
   AutoTVM-2019 rows were captured before AutoTVM's templates became
   restrictions of the schedule space, as that port's contract. *)
let pins =
  [
    ("gemm", "Q-method", 81.607903484605245, 305, 105.31564640187996);
    ("gemm", "P-method", 77.656136265107662, 921, 322.39334309862886);
    ("gemm", "random", 64.357840652102936, 67, 23.532398492495751);
    ("gemm", "AutoTVM", 69.791415224274786, 121, 72.754365317791596);
    ("conv", "Q-method", 62.54083123446388, 304, 106.22259705689081);
    ("conv", "P-method", 65.125160077455462, 1032, 360.05486710148318);
    ("conv", "random", 47.696461451035226, 67, 23.500185429244144);
    ("conv", "AutoTVM", 65.905897684408657, 126, 74.497306820549028);
    ("gemm", "AutoTVM-2019", 76.870063860289321, 117, 71.336909007613542);
    ("conv", "AutoTVM-2019", 64.612307318113309, 120, 71.637239202684327);
  ]

let test_seeded_results_pinned () =
  List.iter
    (fun (graph_name, method_name, best, n_evals, sim_time_s) ->
      let graph = match graph_name with "gemm" -> gemm () | _ -> conv () in
      let report =
        Flextensor.optimize
          ~options:
            { Flextensor.default_options with n_trials = 15;
              search = method_name }
          graph Flextensor.Target.v100
      in
      let label = graph_name ^ "/" ^ method_name in
      check_bool (label ^ " best_value") true
        (Float.equal report.perf_value best);
      check_int (label ^ " n_evals") n_evals report.n_evals;
      check_bool (label ^ " sim_time_s") true
        (Float.equal report.sim_time_s sim_time_s))
    pins

(* -- the new coordinate-descent method ------------------------------ *)

let test_cd_through_optimize_and_store () =
  let graph = gemm () in
  let store = Flextensor.Store.create () in
  let options =
    { Flextensor.default_options with n_trials = 8; search = "CD-method" }
  in
  let cold = Flextensor.optimize ~options ~store graph Flextensor.Target.v100 in
  check_bool "cd searched" true (cold.provenance = Flextensor.Searched);
  check_bool "cd evaluated" true (cold.n_evals > 5);
  check_bool "cd perf valid" true (cold.perf.valid);
  check_bool "cd improves on the naive point" true
    (let space = cold.space in
     let naive =
       Ft_hw.Cost.perf_value space
         (Ft_hw.Cost.evaluate space (Flextensor.Space.default_config space))
     in
     cold.perf_value >= naive);
  (* store reuse: the logged CD schedule is reapplied with zero fresh
     measurements and the identical value. *)
  let warm =
    Flextensor.optimize ~options ~store ~reuse:true graph Flextensor.Target.v100
  in
  check_bool "cd exact hit reused" true (warm.provenance = Flextensor.Reused);
  check_int "cd reuse is measurement-free" 0 warm.n_evals;
  check_bool "cd reuse value identical" true
    (Float.equal warm.perf_value cold.perf_value)

let test_cd_selectable_by_key () =
  let report =
    Flextensor.optimize
      ~options:{ Flextensor.default_options with n_trials = 5; search = "cd" }
      (gemm ()) Flextensor.Target.v100
  in
  check_bool "cd key works" true report.perf.valid

let () =
  Alcotest.run "method table"
    [
      ( "registry",
        [
          Alcotest.test_case "builtins registered" `Quick test_builtins_registered;
          Alcotest.test_case "find by name and key" `Quick
            test_find_by_name_and_key;
          Alcotest.test_case "fixed table" `Quick test_fixed_table;
        ] );
      ( "name stability",
        [
          Alcotest.test_case "names round-trip through the store" `Quick
            test_names_round_trip_through_store;
          Alcotest.test_case "names reach the log and the checkpoint" `Quick
            test_names_reach_log_and_checkpoint;
        ] );
      ( "bit-for-bit pins",
        [
          Alcotest.test_case "seeded results pinned" `Quick
            test_seeded_results_pinned;
        ] );
      ( "coordinate descent",
        [
          Alcotest.test_case "optimize + store reuse" `Quick
            test_cd_through_optimize_and_store;
          Alcotest.test_case "selectable by key" `Quick test_cd_selectable_by_key;
        ] );
    ]
