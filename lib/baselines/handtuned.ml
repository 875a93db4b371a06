(* The authors' hand-tuned GPU implementation for the new operators of
   §6.4: "4-level tiling with hand-optimized split factors and unroll
   loops to a maximum depth of 200" — a single strong fixed schedule,
   without search. *)

let evaluate target graph =
  let space = Ft_schedule.Space.make graph target in
  let config =
    {
      (Ft_schedule.Heuristics.gpu_config space ~threads_per_axis:16 ~vthread:2
         ~inner:2 ~rtile:8)
      with
      unroll_id = Array.length Ft_schedule.Space.unroll_depths - 1;
    }
  in
  (config, Ft_hw.Cost.evaluate space config)
