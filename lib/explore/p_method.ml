(* The exhaustive-direction variant of §6.5: same annealing starting
   points as the Q-method, but every valid direction of every starting
   point is measured each trial — no learned guidance.  Each trial's
   frontier (all neighbors of all starting points) is batch-evaluated,
   with commits in the sequential visit order, so results match the
   point-by-point loop. *)

module Policy = struct
  (* The space's directions, built once per search. *)
  type t = Ft_schedule.Neighborhood.move array

  let method_name = "P-method"
  let seeds = Search_loop.default_seeds

  let create (ctx : Search_loop.ctx) =
    Array.of_list (Ft_schedule.Neighborhood.directions ctx.space)

  let trial directions (ctx : Search_loop.ctx) ~index =
    let { Search_loop.space; state; _ } = ctx in
    Search_loop.trial_span ~key:"p" ~index (fun () ->
        let frontier =
          List.fold_right
            (fun (cfg, _) acc -> Search_loop.expand space directions cfg acc)
            (Search_loop.sa_starts ctx) []
        in
        ignore (Driver.evaluate_batch state frontier));
    1
end

let search_params params space = Search_loop.run (module Policy) params space
