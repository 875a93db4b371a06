open Ft_schedule

(* §6.5: comparison to AutoTVM.
   - FlexTensor vs AutoTVM on C1D/T1D/C2D/T2D/C3D/T3D/GRP.  The paper
     reports an average 2.21x with T2D at 0.95x; its AutoTVM used the
     2019-era templates (the authors wrote the C1D/T1D/C3D/T3D ones
     themselves).  We report both that template generation
     ("paper-era") and the mature mainline one ("divisor").
   - schedule-space size ratio (paper: 2027x larger on average);
   - final performance of P-method (1.41x) and Q-method (1.54x) vs
     AutoTVM at convergence. *)

let ops = [ "C1D"; "T1D"; "C2D"; "T2D"; "C3D"; "T3D"; "GRP" ]

let cases_of abbr =
  (* bound the per-op case count to keep the harness fast *)
  List.filteri (fun i _ -> i < 5) (Ft_workloads.Suites.find abbr)

let vs_autotvm () =
  Bench_common.subsection "FlexTensor vs AutoTVM (V100)";
  let paper_era = ref [] and divisor = ref [] in
  let rows =
    List.map
      (fun abbr ->
        let speedups =
          List.map
            (fun (case : Ft_workloads.Suites.case) ->
              let ft =
                Bench_common.flextensor_search ~max_evals:800 case.graph Target.v100
              in
              let old_t =
                Bench_common.search_method ~n_trials:40 "AutoTVM-2019"
                  case.graph Target.v100
              in
              let new_t =
                Bench_common.search_method ~n_trials:40 "AutoTVM" case.graph
                  Target.v100
              in
              (ft.best_value /. old_t.best_value, ft.best_value /. new_t.best_value))
            (cases_of abbr)
        in
        let old_avg = Bench_common.geomean_or_nan (List.map fst speedups) in
        let new_avg = Bench_common.geomean_or_nan (List.map snd speedups) in
        paper_era := old_avg :: !paper_era;
        divisor := new_avg :: !divisor;
        [ abbr; Ft_util.Table.fmt_ratio old_avg; Ft_util.Table.fmt_ratio new_avg ])
      ops
  in
  Ft_util.Table.print
    ~header:[ "op"; "FT / AutoTVM (paper-era)"; "FT / AutoTVM (mainline)" ]
    rows;
  Printf.printf
    "average vs paper-era templates: %s (paper: 2.21x, T2D 0.95x)\n\
     average vs mainline templates:  %s (templates improved after publication)\n"
    (Ft_util.Table.fmt_ratio (Bench_common.geomean_or_nan !paper_era))
    (Ft_util.Table.fmt_ratio (Bench_common.geomean_or_nan !divisor))

let space_ratio () =
  Bench_common.subsection "schedule-space size: FlexTensor vs AutoTVM template";
  let ratio template =
    Ft_util.Stats.geomean
      (List.map
         (fun (l : Ft_workloads.Yolo.layer) ->
           let space = Space.make (Ft_workloads.Yolo.graph l) Target.v100 in
           Space.size space /. Space.size (Ft_explore.Autotvm.template template space))
         Ft_workloads.Yolo.layers)
  in
  let sizes =
    List.map
      (fun (l : Ft_workloads.Yolo.layer) ->
        Space.size (Space.make (Ft_workloads.Yolo.graph l) Target.v100))
      Ft_workloads.Yolo.layers
  in
  Printf.printf
    "FlexTensor space sizes: %.2e .. %.2e (paper: 3.9e9 .. 2.4e12)\n\
     ratio vs paper-era template (geomean, C1-C15): %.0fx (paper: 2027x)\n\
     ratio vs mainline template  (geomean, C1-C15): %.0fx\n"
    (Ft_util.Stats.minimum sizes) (Ft_util.Stats.maximum sizes)
    (ratio `Paper_era) (ratio `Divisor)

let final_performance () =
  Bench_common.subsection "converged performance of P/Q methods vs AutoTVM (C2D subset)";
  let layers = [ "C2"; "C7"; "C10"; "C13" ] in
  let p_r = ref [] and q_r = ref [] in
  List.iter
    (fun name ->
      let graph = Ft_workloads.Yolo.graph (Ft_workloads.Yolo.find name) in
      let atvm =
        Bench_common.search_method ~n_trials:40 "AutoTVM-2019" graph Target.v100
      in
      (* converged production settings for both methods *)
      let q = Bench_common.search_method ~max_evals:1500 "Q-method" graph Target.v100 in
      let p = Bench_common.search_method ~max_evals:1500 "P-method" graph Target.v100 in
      p_r := (p.best_value /. atvm.best_value) :: !p_r;
      q_r := (q.best_value /. atvm.best_value) :: !q_r)
    layers;
  Printf.printf
    "P-method final perf vs AutoTVM: %s (paper: 1.41x)\n\
     Q-method final perf vs AutoTVM: %s (paper: 1.54x)\n"
    (Ft_util.Table.fmt_ratio (Bench_common.geomean_or_nan !p_r))
    (Ft_util.Table.fmt_ratio (Bench_common.geomean_or_nan !q_r))

let run () =
  Bench_common.section "Section 6.5: comparison to the state of the art (AutoTVM)";
  vs_autotvm ();
  space_ratio ();
  final_performance ()
