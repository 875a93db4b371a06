(* The exhaustive-direction variant of §6.5: same annealing starting
   points as the Q-method, but every valid direction of every starting
   point is measured each trial — no learned guidance.  Each trial's
   frontier (all neighbors of all starting points) is batch-evaluated,
   with commits in the sequential visit order, so results match the
   point-by-point loop.  It keeps no state across trials. *)

let trial (ctx : Search_loop.ctx) ~index =
  Search_loop.trial_span ~key:"p" ~index (fun () ->
      let frontier =
        List.fold_right
          (fun (cfg, _) acc -> Search_loop.expand ctx cfg acc)
          (Search_loop.sa_starts ctx) []
      in
      ignore (Driver.evaluate_batch ctx.state frontier));
  1

let policy = { Search_loop.seeds = Search_loop.default_seeds; start = trial }
