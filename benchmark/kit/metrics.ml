(* Every metric's unit.  BENCHMARK.json lists the same names and units,
   with each metric's direction; the smoke test holds the two together.

   End-to-end metrics are measured with tracing off, on every workload,
   and are never 0.  Per-layer metrics come from a traced run; a layer
   a workload never runs reads 0, and a tail percentile with fewer than
   ten samples beyond it reads 0. *)

let units =
  [
    (* end to end *)
    ("setup_s", "s");
    ("jobs_per_s", "1/s");
    ("job_ms_p50", "ms");
    ("evals_per_s", "1/s");
    ("winner_gflops_geomean", "GFLOPS");
    ("peak_rss_mb", "MiB");
    (* per layer: tails and workload-specific series of the untraced pass *)
    ("job_ms_p90", "ms");
    ("measure_ms_p50", "ms");
    ("measure_ms_p90", "ms");
    ("kernel_gflops_geomean", "GFLOPS");
    ("hit_us_p50", "us");
    ("hit_us_p90", "us");
    (* ft_explore search loop / Driver *)
    ("search.trials", "count");
    ("search.self_s", "s");
    (* ft_qlearn + ft_nn *)
    ("qnet.forward_us", "us");
    ("qnet.record_us", "us");
    ("qnet.share", "ratio");
    (* ft_schedule *)
    ("sched.neighbors_us", "us");
    ("sched.features_us", "us");
    ("sched.key_us", "us");
    (* ft_hw cost model *)
    ("cost.calls", "count");
    ("cost.eval_us", "us");
    ("cost.share", "ratio");
    (* ft_explore.Evaluator *)
    ("eval.fresh", "count");
    ("eval.cache_hit", "count");
    ("eval.hit_ratio", "ratio");
    ("eval.batch_mean", "count");
    (* ft_par pool *)
    ("pool.regions", "count");
    ("pool.wall_s", "s");
    ("pool.busy_s", "s");
    ("pool.efficiency", "ratio");
    (* ft_lower lowering / compile / kernel *)
    ("lower.us", "us");
    ("compile.us", "us");
    ("kernel.ms", "ms");
    ("kernel.gflops", "GFLOPS");
    (* ft_lower.Sandbox *)
    ("sandbox.calls", "count");
    ("sandbox.ms", "ms");
    ("sandbox.overhead_ms", "ms");
    ("sandbox.faults", "count");
    ("sandbox.retries", "count");
    (* ft_store + Transfer *)
    ("store.load_s", "s");
    ("store.records", "count");
    ("store.best_exact_us", "us");
    ("store.nearest_ms", "ms");
    ("store.add_us", "us");
    ("transfer.seeds_ms", "ms");
    (* diagnostics *)
    ("other_s", "s");
    ("trace.overhead_frac", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name units with
  | Some u -> u
  | None -> invalid_arg ("Metrics.unit_of: " ^ name)

(* The result line: the last line of a run's standard output. *)
let result_line ~correct ~attempted ~failed values =
  let module Json = Ft_store.Json in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, value) ->
                  ( name,
                    Json.Obj [ ("value", Json.Num value); ("unit", Json.Str (unit_of name)) ] ))
                values) );
       ])
