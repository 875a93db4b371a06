(* ft_obs telemetry: span bookkeeping, JSONL rendering, and the
   instrumentation contract — enabling a trace sink must leave search
   results bit-for-bit unchanged. *)

module Trace = Ft_obs.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* An in-memory sink capturing records in emission order. *)
let recording () =
  let recs = ref [] in
  let sink = Trace.Sink.make (fun r -> recs := r :: !recs) in
  (sink, fun () -> List.rev !recs)

(* -- spans ----------------------------------------------------------- *)

let test_span_nesting () =
  let sink, records = recording () in
  Trace.enable sink;
  Trace.with_span "outer" ~fields:[ ("k", Trace.Int 1) ] (fun () ->
      Trace.with_span "inner" (fun () -> Trace.event "hello" [ ("x", Trace.Str "y") ]);
      Trace.event "after" []);
  Trace.close ();
  match records () with
  | [ ob; ib; ev1; ie; ev2; oe ] ->
      check_string "outer name" "outer" ob.Trace.name;
      check_bool "outer is top-level" true (ob.Trace.parent = 0);
      check_int "inner parent is outer" ob.Trace.span ib.Trace.parent;
      check_int "event parent is inner" ib.Trace.span ev1.Trace.parent;
      check_bool "inner end carries dur_s" true
        (List.mem_assoc "dur_s" ie.Trace.fields);
      check_int "post-inner event parent is outer" ob.Trace.span ev2.Trace.parent;
      check_bool "outer begin keeps its fields" true
        (List.assoc_opt "k" ob.Trace.fields = Some (Trace.Int 1));
      check_bool "outer end carries dur_s" true
        (List.mem_assoc "dur_s" oe.Trace.fields)
  | records -> Alcotest.failf "expected 6 records, got %d" (List.length records)

exception Boom

let test_with_span () =
  let sink, records = recording () in
  Trace.enable sink;
  let got = Trace.with_span "ok" (fun () -> 41 + 1) in
  check_int "with_span returns the body's value" 42 got;
  (match Trace.with_span "burns" (fun () -> raise Boom) with
  | () -> Alcotest.fail "expected Boom to escape"
  | exception Boom -> ());
  Trace.event "top" [];
  Trace.close ();
  let ends =
    List.filter (fun (r : Trace.record) -> r.kind = Trace.Span_end) (records ())
  in
  check_int "both spans ended (even on exception)" 2 (List.length ends);
  let top =
    List.find (fun (r : Trace.record) -> r.name = "top") (records ())
  in
  check_int "stack unwound after the exception" 0 top.Trace.parent

(* -- counters and gauges --------------------------------------------- *)

let test_counters_and_gauges () =
  let sink, records = recording () in
  Trace.enable sink;
  Trace.incr "a";
  Trace.incr "a" ~by:4;
  Trace.incr "b";
  Trace.gauge "g" 1.5;
  Trace.gauge "g" 2.5;
  Alcotest.(check (list (pair string int)))
    "counter snapshot" [ ("a", 5); ("b", 1) ] (Trace.counters ());
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauge snapshot keeps the last value" [ ("g", 2.5) ] (Trace.gauges ());
  Trace.close ();
  let summary =
    List.filter
      (fun (r : Trace.record) -> r.kind = Trace.Counter || r.kind = Trace.Gauge)
      (records ())
  in
  (* two live gauge records + 2 counter summaries + 1 gauge summary *)
  check_int "close flushes counter/gauge summaries" 5 (List.length summary);
  let counter_a =
    List.find
      (fun (r : Trace.record) -> r.kind = Trace.Counter && r.name = "a")
      summary
  in
  check_bool "counter summary carries the total" true
    (List.assoc "n" counter_a.Trace.fields = Trace.Int 5)

let test_disabled_is_noop () =
  Trace.close ();
  check_bool "disabled by default / after close" false (Trace.active ());
  Trace.event "x" [];
  Trace.incr "x";
  Trace.gauge "x" 1.;
  check_int "with_span still runs the body" 7 (Trace.with_span "x" (fun () -> 7))

(* -- JSONL rendering -------------------------------------------------- *)

module Json = Ft_util.Json

let read_lines path =
  let lines = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  List.filter (( <> ) "") (String.split_on_char '\n' lines)

let parse line =
  match Json.of_string line with
  | Ok json -> json
  | Error msg -> Alcotest.failf "%s in %s" msg line

let test_jsonl_well_formed () =
  let path = Filename.temp_file "ft_obs" ".jsonl" in
  Trace.enable_jsonl path;
  Trace.with_span "run" ~fields:[ ("note", Trace.Str "quote \" slash \\ nl \n tab \t") ]
    (fun () ->
      Trace.event "weird" [ ("nan", Float Float.nan); ("inf", Float infinity);
                            ("neg", Float (-3.5)); ("flag", Bool false) ];
      Trace.incr "count" ~by:3;
      Trace.gauge "level" 0.25);
  Trace.close ();
  let lines = read_lines path in
  (* begin, event, live gauge, end, plus counter + gauge summaries *)
  check_int "all records written" 6 (List.length lines);
  List.iter
    (fun line ->
      check_bool "leads with ts then ev" true
        (match parse line with
        | Json.Obj (("ts", Json.Num _) :: ("ev", Json.Str _) :: _) -> true
        | _ -> false))
    lines;
  check_bool "non-finite floats serialize as null" true
    (Json.member "nan" (parse (List.nth lines 1)) = Some Json.Null)

(* Hostile names and values: every line parses back through the one
   codec, strings byte-for-byte, finite floats bit-for-bit, non-finite
   floats as null. *)
let test_jsonl_round_trips () =
  let names =
    [ "quote\"d"; "back\\slash"; "new\nline"; "ctl\x01byte"; "caf\xc3\xa9 \xff\xfe" ]
  in
  let floats = [ 0.1; -0.; 1e-300; Float.pi; 123456.789; Float.max_float; 5e-324 ] in
  let path = Filename.temp_file "ft_obs_rt" ".jsonl" in
  Trace.enable_jsonl path;
  List.iter
    (fun name ->
      Trace.event name
        (("s", Trace.Str name)
        :: ("nan", Float Float.nan) :: ("ninf", Float neg_infinity)
        :: List.mapi (fun i f -> (Printf.sprintf "f%d" i, Trace.Float f)) floats))
    names;
  Trace.close ();
  let lines = read_lines path in
  check_int "one line per event" (List.length names) (List.length lines);
  List.iter2
    (fun name line ->
      let json = parse line in
      check_bool "name round-trips" true (Json.member "name" json = Some (Json.Str name));
      check_bool "string field round-trips" true (Json.member "s" json = Some (Json.Str name));
      check_bool "nan is null" true (Json.member "nan" json = Some Json.Null);
      check_bool "-inf is null" true (Json.member "ninf" json = Some Json.Null);
      List.iteri
        (fun i f ->
          match Json.member (Printf.sprintf "f%d" i) json with
          | Some (Json.Num g) ->
              check_bool (Printf.sprintf "%h bit-for-bit" f) true
                (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
          | _ -> Alcotest.failf "f%d missing" i)
        floats)
    names lines

(* -- determinism: tracing never changes search results ---------------- *)

let gemm_space () =
  Ft_schedule.Space.make (Ft_ir.Operators.gemm ~m:64 ~n:64 ~k:64)
    Ft_schedule.Target.v100

(* The hot paths surface in telemetry: batched evaluation writes one
   [eval.batch] event carrying its size, and the MLP forward
   accumulates [nn.forward_ns] into the [--trace] summary table. *)
let test_batched_telemetry_names () =
  Trace.close ();
  let path = Filename.temp_file "ft_obs_batch" ".jsonl" in
  Trace.enable_jsonl path;
  let net = Ft_nn.Network.mlp (Ft_util.Rng.create 1) ~dims:[| 4; 8; 3 |] in
  ignore (Ft_nn.Network.forward net [| 1.; 2.; 3.; 4. |]);
  let space = gemm_space () in
  let rng = Ft_util.Rng.create 2 in
  let evaluator = Ft_explore.Evaluator.create space in
  Ft_explore.Evaluator.commit_batch evaluator ~should_stop:(fun () -> false)
    (List.init 8 (fun _ -> Ft_schedule.Space.random_config rng space))
    (fun _ _ -> ());
  let counters = List.map fst (Trace.counters ()) in
  Trace.close ();
  let batch_event line =
    let json = parse line in
    Json.member "name" json = Some (Json.Str "eval.batch")
    && Json.member "n" json = Some (Json.Num 8.)
  in
  check_bool "eval.batch event" true (List.exists batch_event (read_lines path));
  check_bool "nn.forward_ns counter" true (List.mem "nn.forward_ns" counters)

let result_fingerprint (r : Ft_explore.Driver.result) =
  ( Ft_schedule.Config.compute_key r.best_config,
    r.best_value,
    r.n_evals,
    r.sim_time_s,
    List.map
      (fun (s : Ft_explore.Driver.sample) -> (s.at_s, s.n_evals, s.best_value))
      r.history )

let searches =
  let run search n_trials ~seed space =
    search
      {
        Ft_explore.Search_loop.default_params with
        seed;
        n_trials;
        max_evals = Some 60;
      }
      space
  in
  [
    ("q", run Ft_explore.Q_method.search_params 5);
    ("p", run Ft_explore.P_method.search_params 3);
    ("random", run Ft_explore.Random_method.search_params 40);
    ("autotvm", run Ft_explore.Autotvm.search_params 3);
  ]

let test_tracing_is_invisible =
  let space = gemm_space () in
  QCheck.Test.make ~count:4 ~name:"tracing leaves search results unchanged"
    QCheck.(pair (int_bound 9999) (int_bound (List.length searches - 1)))
    (fun (seed, which) ->
      let name, search = List.nth searches which in
      Trace.close ();
      let reference = result_fingerprint (search ~seed space) in
      let path = Filename.temp_file "ft_obs_qcheck" ".jsonl" in
      Trace.enable_jsonl path;
      let traced = result_fingerprint (search ~seed space) in
      Trace.close ();
      Sys.remove path;
      if traced <> reference then
        QCheck.Test.fail_reportf "%s diverged under tracing (seed %d)" name seed
      else true)

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "ft_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "with_span" `Quick test_with_span;
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "jsonl well-formed" `Quick test_jsonl_well_formed;
          Alcotest.test_case "jsonl round-trips" `Quick test_jsonl_round_trips;
          Alcotest.test_case "batched-path telemetry" `Quick
            test_batched_telemetry_names;
        ] );
      ("determinism", [ qcheck test_tracing_is_invisible ]);
    ]
