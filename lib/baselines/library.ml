(* Shared machinery for the hand-tuned-library baselines: they are
   fixed, shape-generic schedules (built by Ft_schedule.Heuristics)
   evaluated on the same hardware models as FlexTensor, optionally
   choosing the best of a small candidate set — the algorithm-selection
   heuristics real libraries ship with. *)

let best_of ?flops_scale (space : Ft_schedule.Space.t) candidates =
  match candidates with
  | [] -> invalid_arg "Library.best_of: no candidates"
  | first :: _ ->
      let best_cfg, best_perf =
        List.fold_left
          (fun (best_cfg, best_perf) cfg ->
            let perf = Ft_hw.Cost.evaluate ?flops_scale space cfg in
            if
              Ft_hw.Cost.perf_value space perf
              > Ft_hw.Cost.perf_value space best_perf
            then (cfg, perf)
            else (best_cfg, best_perf))
          (first, Ft_hw.Cost.evaluate ?flops_scale space first)
          candidates
      in
      if best_perf.Ft_hw.Perf.valid then (best_cfg, best_perf)
      else
        (* Awkward shapes can invalidate every pre-built kernel; a real
           library still has a slow generic path. *)
        let fallback = Ft_schedule.Space.default_config space in
        (fallback, Ft_hw.Cost.evaluate ?flops_scale space fallback)

(* Candidate tilings a well-tuned GPU library dispatches between — a
   handful of pre-built kernels, not a per-shape search. *)
let gpu_candidates space =
  List.concat_map
    (fun threads_per_axis ->
      List.concat_map
        (fun (vthread, inner) ->
          List.map
            (fun rtile ->
              Ft_schedule.Heuristics.gpu_config space ~threads_per_axis ~vthread ~inner
                ~rtile)
            [ 4; 8; 16 ])
        [ (1, 1); (2, 2) ])
    [ 16; 32 ]

let cpu_candidates space =
  List.concat_map
    (fun mid ->
      List.concat_map
        (fun inner ->
          List.map
            (fun rtile ->
              Ft_schedule.Heuristics.cpu_config space ~mid ~inner ~vec:8 ~rtile)
            [ 4; 8; 16 ])
        [ 2; 4; 8 ])
    [ 2; 4; 8 ]
