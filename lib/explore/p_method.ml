(* The exhaustive-direction variant of §6.5: same annealing starting
   points as the Q-method, but every valid direction of every starting
   point is measured each trial — no learned guidance.  Each trial's
   frontier (all neighbors of all starting points) is batch-evaluated,
   with commits in the sequential visit order, so results match the
   point-by-point loop. *)

module Policy = struct
  type t = unit

  let method_name = "P-method"
  let seeds = Search_loop.default_seeds
  let create _ctx = ()

  let trial () (ctx : Search_loop.ctx) ~index =
    let { Search_loop.space; state; _ } = ctx in
    Search_loop.trial_span ~key:"p" ~index (fun () ->
        let frontier =
          List.concat_map
            (fun (cfg, _) ->
              List.map snd (Ft_schedule.Neighborhood.neighbors space cfg))
            (Search_loop.sa_starts ctx)
        in
        ignore (Driver.evaluate_batch state frontier));
    1
end

let search_params params space = Search_loop.run (module Policy) params space
