open Ft_schedule
open Ft_store

(* `bench model`: does the analytical hardware model predict reality?
   The host is the one machine we can actually time, so the model under
   test is a CPU spec describing the compiled scalar executor
   ([host_interp] below: one core, no SIMD, calibrated clock).  Four
   results go to BENCH_model.json:

   (1) per-operator Spearman rank correlation between predicted and
       measured kernel time over ~64 sampled configs spanning several
       problem sizes — CI gates the mean at >= 0.5;
   (2) predicted vs measured GFLOPS of the best schedule a short
       Q-method search finds per operator;
   (3) the compiled executor's speedup over the tree-walking
       interpreter on the same lowered program — CI gates >= 400x;
   (4) the host-GEMM reference ([Gemm.gemm_bt]) timed in the same run,
       and each operator's best measured GFLOPS divided by it: a ratio
       in which the host's speed cancels. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* FT_BENCH_MODEL_CONFIGS shrinks the per-operator sample for smoke
   jobs; the default is the acceptance-scale sample. *)
let n_configs () = env_int "FT_BENCH_MODEL_CONFIGS" 64

(* The compiled executor runs scalar closures and native loop nests —
   no threads, no SIMD, no FMA ports.  The clock was calibrated so the
   spec's peak (2 FLOPs per cycle, 0.16 GFLOPS) matched the best
   schedules' throughput while the executor fused one innermost loop
   at a time (~0.1-0.4 GFLOPS on a 2-core Xeon VM).  Since whole loop
   chains run as native nests the best schedules measure ~0.7-1.2
   GFLOPS there.  The clock stays put: Spearman is rank-based, so the
   gate is insensitive to the absolute calibration, and a fixed model
   leaves the predicted series unchanged, so a Spearman move measures
   the executor alone.  The model does not price what a fused chain
   still pays per entry of its innermost double loop (a closure call,
   and a recursive call per outer level), which a short innermost loop
   pays every few multiply-adds. *)
let host_interp =
  Target.Cpu
    {
      Target.cpu_name = "host-interp";
      cores = 1;
      clock_ghz = 0.08;
      vector_width = 1;
      fma_units = 1;
      l1_kb = 32;
      l2_kb = 1024;
      l3_mb = 32;
      mem_bw_gb = 10.;
      l2_bw_gb = 40.;
      l1_bw_gb = 100.;
    }

(* Per operator: several problem sizes, each small enough that one
   compiled run lands in ~0.5-10 ms — large enough to time, small
   enough that a 64-config sweep stays in seconds. *)
let operators =
  [
    ( "gemm",
      [
        Ft_ir.Operators.gemm ~m:32 ~n:32 ~k:32;
        Ft_ir.Operators.gemm ~m:48 ~n:48 ~k:48;
        Ft_ir.Operators.gemm ~m:64 ~n:32 ~k:48;
        Ft_ir.Operators.gemm ~m:64 ~n:64 ~k:64;
      ] );
    ( "gemv",
      [
        Ft_ir.Operators.gemv ~m:256 ~k:256;
        Ft_ir.Operators.gemv ~m:512 ~k:256;
        Ft_ir.Operators.gemv ~m:256 ~k:512;
        Ft_ir.Operators.gemv ~m:512 ~k:512;
      ] );
    ( "conv1d",
      [
        Ft_ir.Operators.conv1d ~batch:1 ~in_channels:8 ~out_channels:8
          ~length:64 ~kernel:3 ();
        Ft_ir.Operators.conv1d ~batch:1 ~in_channels:16 ~out_channels:16
          ~length:64 ~kernel:3 ();
        Ft_ir.Operators.conv1d ~batch:1 ~in_channels:16 ~out_channels:16
          ~length:128 ~kernel:3 ();
        Ft_ir.Operators.conv1d ~batch:1 ~in_channels:32 ~out_channels:16
          ~length:128 ~kernel:3 ();
      ] );
    ( "conv2d",
      [
        Ft_ir.Operators.conv2d ~batch:1 ~in_channels:4 ~out_channels:8
          ~height:16 ~width:16 ~kernel:3 ();
        Ft_ir.Operators.conv2d ~batch:1 ~in_channels:8 ~out_channels:8
          ~height:16 ~width:16 ~kernel:3 ();
        Ft_ir.Operators.conv2d ~batch:1 ~in_channels:8 ~out_channels:16
          ~height:16 ~width:16 ~kernel:3 ();
        Ft_ir.Operators.conv2d ~batch:1 ~in_channels:16 ~out_channels:16
          ~height:16 ~width:16 ~kernel:3 ();
      ] );
  ]

(* Sample [n] valid configs round-robin over the operator's spaces
   (each space's default config anchors its size class), returning
   (predicted time, measured time) pairs.  Points the analytical model
   rejects are skipped — there is nothing to correlate against. *)
let correlation_points rng spaces n =
  let n_spaces = Array.length spaces in
  let points = ref [] in
  for i = 0 to n - 1 do
    let space = spaces.(i mod n_spaces) in
    let cfg =
      if i < n_spaces then Space.default_config space
      else
        let rec draw attempts =
          let cfg = Space.random_config rng space in
          if Space.valid space cfg || attempts >= 50 then cfg
          else draw (attempts + 1)
        in
        draw 0
    in
    let predicted = Ft_hw.Cost.evaluate space cfg in
    if predicted.Ft_hw.Perf.valid then begin
      let measured = Flextensor.Measure.run ~reps:3 space cfg in
      if measured.Ft_hw.Perf.valid then
        points :=
          (predicted.Ft_hw.Perf.time_s, measured.Ft_hw.Perf.time_s) :: !points
    end
  done;
  List.rev !points

(* Short Q-method search on the host-interp target, then the winning
   schedule timed for real: the end-to-end "did the model pick a fast
   schedule, and how fast is it actually" check. *)
let best_found space =
  let result =
    (Ft_explore.Method.find_exn "Q-method").search
      {
        Ft_explore.Search_loop.default_params with
        seed = Bench_common.seed;
        n_trials = 10_000;
        max_evals = Some 100;
      }
      space
  in
  (* Measure the winner the way `optimize --measure` does: in the
     sandbox, so a pathological best schedule cannot take the bench
     harness down (DESIGN.md §11). *)
  let measured =
    Flextensor.Sandbox.measurer space result.Ft_explore.Driver.best_config
  in
  (result.Ft_explore.Driver.best_perf, measured)

type op_result = {
  op : string;
  n_points : int;
  spearman : float;
  predicted_gflops : float;
  measured_gflops : float;
}

(* [Gemm.gemm_bt] on a 64^3 product, the [bench micro] reference
   kernel: the best of 16 rounds of 64 calls. *)
let gemm_bt_gflops () =
  let n = 64 in
  let a = Gemm.mat n n and bt = Gemm.mat n n and c = Gemm.mat n n in
  let best = ref infinity in
  for _ = 1 to 16 do
    let t0 = Ft_util.Monotime.now_s () in
    for _ = 1 to 64 do
      Gemm.gemm_bt ~a ~bt ~c
    done;
    best := Float.min !best (Ft_util.Monotime.elapsed_s t0 /. 64.)
  done;
  float_of_int (2 * n * n * n) /. !best /. 1e9

let run_operator (op, graphs) =
  let spaces =
    Array.of_list (List.map (fun g -> Space.make g host_interp) graphs)
  in
  let rng = Ft_util.Rng.create Bench_common.seed in
  let points = correlation_points rng spaces (n_configs ()) in
  let predicted = Array.of_list (List.map fst points) in
  let measured = Array.of_list (List.map snd points) in
  let spearman = Ft_util.Stats.spearman predicted measured in
  let best_perf, best_measured = best_found spaces.(1) in
  {
    op;
    n_points = List.length points;
    spearman;
    predicted_gflops = best_perf.Ft_hw.Perf.gflops;
    measured_gflops = best_measured.Ft_hw.Perf.gflops;
  }

(* Compiled executor vs the tree-walking interpreter on one mid-size
   gemm: same lowered program, same inputs. *)
let executor_speedup () =
  let space =
    Space.make (Ft_ir.Operators.gemm ~m:48 ~n:48 ~k:48) host_interp
  in
  let cfg = Space.default_config space in
  let interp_s = Flextensor.Measure.interp_time_s space cfg in
  let compiled = Flextensor.Measure.run space cfg in
  (interp_s, compiled.Ft_hw.Perf.time_s)

let write_json ~results ~mean_spearman ~interp_s ~compiled_s ~gemm_gflops path =
  let num f = Json.Num f in
  let json =
    Json.Obj
      ([
        ("bench", Json.Str "model");
        ("target", Json.Str "host-interp (compiled scalar executor)");
      ]
      @ Bench_common.host_fields ()
      @ [
        ("configs_per_operator", num (float_of_int (n_configs ())));
        ( "operators",
          Json.Obj
            (List.map
               (fun r ->
                 ( r.op,
                   Json.Obj
                     [
                       ("n_points", num (float_of_int r.n_points));
                       ("spearman", num r.spearman);
                       ("best_predicted_gflops", num r.predicted_gflops);
                       ("best_measured_gflops", num r.measured_gflops);
                       ( "measured_over_gemm_bt",
                         num (r.measured_gflops /. gemm_gflops) );
                     ] ))
               results) );
        ("mean_spearman", num mean_spearman);
        ("gemm_bt_gflops", num gemm_gflops);
        ( "executor",
          Json.Obj
            [
              ("interp_ms", num (interp_s *. 1e3));
              ("compiled_ms", num (compiled_s *. 1e3));
              ("speedup", num (interp_s /. compiled_s));
            ] );
      ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let run () =
  Bench_common.section
    "Hardware-model validation (predicted vs measured on the host)";
  Bench_common.subsection
    (Printf.sprintf "rank correlation over %d configs per operator"
       (n_configs ()));
  let results = List.map run_operator operators in
  let gemm_gflops = gemm_bt_gflops () in
  Ft_util.Table.print
    ~header:
      [ "operator"; "points"; "spearman"; "best pred GF"; "best meas GF"; "/ gemm_bt" ]
    (List.map
       (fun r ->
         [
           r.op;
           string_of_int r.n_points;
           Printf.sprintf "%.3f" r.spearman;
           Printf.sprintf "%.2f" r.predicted_gflops;
           Printf.sprintf "%.3f" r.measured_gflops;
           Printf.sprintf "%.3f" (r.measured_gflops /. gemm_gflops);
         ])
       results);
  Printf.printf "\nhost gemm_bt (64^3): %.2f GFLOPS\n" gemm_gflops;
  let mean_spearman =
    Ft_util.Stats.mean (List.map (fun r -> r.spearman) results)
  in
  Printf.printf "\nmean spearman: %.3f\n" mean_spearman;
  Bench_common.subsection "compiled executor vs interpreter (gemm 48^3)";
  let interp_s, compiled_s = executor_speedup () in
  Printf.printf "interp %.1f ms, compiled %.2f ms: %.0fx\n" (interp_s *. 1e3)
    (compiled_s *. 1e3)
    (interp_s /. compiled_s);
  write_json ~results ~mean_spearman ~interp_s ~compiled_s ~gemm_gflops
    "BENCH_model.json";
  print_endline "\n[wrote BENCH_model.json]"
