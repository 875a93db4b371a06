(* Coordinate-descent fine-tuning: greedy single-knob descent from the
   incumbent (the "raindrop" exploitation phase of Canesche et al.).
   Each trial batch-evaluates every single-knob move away from the
   current best schedule and adopts whichever wins; when no neighbor
   is new (a local optimum, or one whose whole neighborhood has been
   visited), it restarts from one uniform random point.  Commits stay
   in the sequential neighbor order.  It keeps no state across
   trials. *)

let trial (ctx : Search_loop.ctx) ~index =
  let { Search_loop.rng; space; state; _ } = ctx in
  Search_loop.trial_span ~key:"cd" ~index (fun () ->
      let incumbent, _ = state.best in
      let frontier = Search_loop.expand ctx incumbent [] in
      (* Stuck at an exhausted incumbent: hop to a fresh random
         point so descent can resume somewhere new. *)
      if Driver.evaluate_batch state frontier = 0 && not (Driver.out_of_budget state) then
        ignore (Driver.evaluate_batch state [ Ft_schedule.Space.random_config rng space ]));
  1

let policy = { Search_loop.seeds = Search_loop.default_seeds; start = trial }
