(* Unit tests for the benchmark's own helpers. *)

open Ftbench_kit

let close = Alcotest.float 1e-9

let test_tail_rule () =
  let series n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check int) "p90 rank of 100" 90 (Summary.rank ~pct:90 100);
  Alcotest.(check (option close)) "p90 of 1..100" (Some 90.) (Summary.tail ~pct:90 (series 100));
  Alcotest.(check (option close)) "99 samples leave 9 beyond p90" None
    (Summary.tail ~pct:90 (series 99));
  Alcotest.(check (option close)) "p90 of 1..250" (Some 225.) (Summary.tail ~pct:90 (series 250));
  Alcotest.(check (option close)) "p50 of 1..20" (Some 10.) (Summary.tail ~pct:50 (series 20));
  Alcotest.(check (option close)) "empty" None (Summary.tail ~pct:90 []);
  Alcotest.check close "median, even count" 2.5 (Summary.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "median, odd count" 3. (Summary.median [ 5.; 3.; 1. ])

let result ?error ?(host_factor = 1.) perf_value =
  {
    Child.wall_s = 0.1;
    n_evals = 10;
    perf_value;
    config = "";
    provenance = "searched";
    measure_s = 0.;
    measured_gflops = None;
    error;
    host_factor;
  }

let job kind = { Spec.graph = Spec.Small 0; target = "xeon"; kind; seed = 0 }

(* Winner quality: geometric mean over the search jobs that returned a
   winner — exact hits replay logged schedules and are left out. *)
let test_winner_geomean () =
  let jobs = [ job Spec.Search; job Spec.Miss; job Spec.Hit; job Spec.Search; job Spec.Search ] in
  let pass =
    {
      Child.tune_s = 1.;
      cycles = 1;
      results = [ result 1.; result 4.; result 1000.; result 16.; result ~error:"boom" 0. ];
    }
  in
  let metrics = Run.end_to_end Spec.q_search ~setups:[ 0.1 ] ~peak_rss_mb:1. jobs pass in
  Alcotest.check close "geomean of 1, 4, 16" 4. (List.assoc "winner_gflops_geomean" metrics);
  Alcotest.check close "jobs per second of job time, every request counted" 10.
    (List.assoc "jobs_per_s" metrics);
  Alcotest.check close "evals per second of search time" 100. (List.assoc "evals_per_s" metrics)

(* Search quality covers the first [quality_cycles] cycles only, so a
   run that fits more cycles reads the same; the rates cover them all. *)
let test_quality_cycles () =
  let w = { Spec.q_search with quality_cycles = 1 } in
  let jobs = [ job Spec.Search; job Spec.Search; job Spec.Search; job Spec.Search ] in
  let pass =
    { Child.tune_s = 1.; cycles = 2; results = [ result 2.; result 8.; result 1e6; result 1e6 ] }
  in
  let metrics = Run.end_to_end w ~setups:[ 0.1 ] ~peak_rss_mb:1. jobs pass in
  Alcotest.check close "geomean of the first cycle" 4.
    (List.assoc "winner_gflops_geomean" metrics);
  Alcotest.check close "every cycle's jobs counted" 10. (List.assoc "jobs_per_s" metrics)

(* Times are divided by the host factor measured around them: a job
   that took 0.1 s while the host ran at half speed counts 0.05 s. *)
let test_host_factor () =
  let pass =
    { Child.tune_s = 1.; cycles = 1; results = [ result ~host_factor:2. 1.; result 1. ] }
  in
  let metrics =
    Run.end_to_end Spec.q_search ~setups:[ 0.1 ] ~peak_rss_mb:1.
      [ job Spec.Search; job Spec.Search ] pass
  in
  Alcotest.check close "jobs per reference second" (2. /. 0.15) (List.assoc "jobs_per_s" metrics);
  Alcotest.check close "median job time" 75. (List.assoc "job_ms_p50" metrics);
  Alcotest.check close "factor 1 at reference speed" 1.
    (Calibrate.factor ~before:Calibrate.reference_s ~after:Calibrate.reference_s);
  Alcotest.check close "twice as slow" (2. ** Calibrate.elasticity)
    (Calibrate.factor ~before:Calibrate.reference_s ~after:(3. *. Calibrate.reference_s))

let line ?(fields = "") ~ts ev name ~span ~parent =
  Printf.sprintf {|{"ts":%g,"ev":"%s","name":"%s","span":%d,"parent":%d%s}|} ts ev name span
    parent fields

let span ~id ~parent name lo hi =
  [ line ~ts:lo "span_begin" name ~span:id ~parent;
    line ~ts:hi "span_end" name ~span:id ~parent
      ~fields:(Printf.sprintf {|,"dur_s":%g|} (hi -. lo)) ]

(* Self time is the span minus the union of its children, clipped to the
   span: children [1,4] and [3,6] overlap, [8,12] outlives its parent. *)
let test_fold_self_time () =
  let lines =
    span ~id:1 ~parent:0 "job" 0. 10.
    @ span ~id:2 ~parent:1 "trial" 1. 4.
    @ span ~id:3 ~parent:1 "trial" 3. 6.
    @ span ~id:4 ~parent:1 "pool.map" 8. 12.
    @ span ~id:5 ~parent:2 "pool.map" 2. 3.
    @ [
        {|{"ts":20,"ev":"counter","name":"eval.fresh","n":7}|};
        {|{"ts":20,"ev":"event","name":"eval.batch","n":3}|};
        {|{"ts":20,"ev":"event","name":"eval.batch","count":4,"n":10}|};
        {|{"ts":1,"ev":"span_begin","name":"unclosed","span":9}|};
        {|not json|};
      ]
  in
  let fold = Trace_file.of_lines lines in
  let job = Trace_file.row fold "job" in
  Alcotest.check close "job self" 3. job.self_s;
  Alcotest.check close "job total" 10. job.total_s;
  let trial = Trace_file.row fold "trial" in
  Alcotest.(check int) "trial calls" 2 trial.calls;
  Alcotest.check close "trial self" 5. trial.self_s;
  Alcotest.check close "pool.map self" 5. (Trace_file.row fold "pool.map").self_s;
  Alcotest.(check int) "unclosed spans are dropped" 0 (Trace_file.row fold "unclosed").calls;
  Alcotest.(check int) "counter" 7 (Trace_file.counter fold "eval.fresh");
  Alcotest.check close "plain and aggregated events" 5. (Trace_file.count fold "eval.batch");
  Alcotest.check close "field sums" 13. (Trace_file.sum fold "eval.batch" "n")

(* The sink writes what the fold reads: events and gauges folded per
   name, without the gauge values Trace.close replays. *)
let test_sink_roundtrip () =
  let path = Filename.temp_file "ftbench" ".jsonl" in
  let sink, closing = Trace_file.sink path in
  let module Trace = Ft_obs.Trace in
  Trace.enable sink;
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> Unix.sleepf 0.002);
      for i = 1 to 3 do
        Trace.event "eval.batch" [ ("n", Trace.Int i) ];
        Trace.gauge "q.epsilon" 0.5
      done;
      Trace.incr ~by:2 "eval.fresh");
  closing ();
  Trace.close ();
  let fold = Trace_file.load path in
  Sys.remove path;
  Alcotest.(check int) "spans" 2 (List.length (Trace_file.spans fold));
  Alcotest.(check bool) "inner time is not outer self time" true
    ((Trace_file.row fold "outer").self_s < (Trace_file.row fold "outer").total_s);
  Alcotest.check close "events" 3. (Trace_file.count fold "eval.batch");
  Alcotest.check close "event field sum" 6. (Trace_file.sum fold "eval.batch" "n");
  Alcotest.check close "gauge updates" 3. (Trace_file.count fold "q.epsilon");
  Alcotest.(check int) "counters" 2 (Trace_file.counter fold "eval.fresh")

let () =
  Alcotest.run "ftbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "winner geomean" `Quick test_winner_geomean;
          Alcotest.test_case "quality cycles" `Quick test_quality_cycles;
          Alcotest.test_case "host factor" `Quick test_host_factor;
          Alcotest.test_case "fold self time" `Quick test_fold_self_time;
          Alcotest.test_case "sink round trip" `Quick test_sink_roundtrip;
        ] );
    ]
