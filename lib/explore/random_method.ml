(* Uniform random sampling of the schedule space — the weakest search,
   used as the ablation floor for the back-end comparison.  Trials are
   drawn in chunks and batch-evaluated; the RNG stream and the
   committed points are exactly those of the one-at-a-time loop. *)

let chunk_trials = 32

let trial (ctx : Search_loop.ctx) ~index =
  let { Search_loop.params; rng; space; state; _ } = ctx in
  let take = min chunk_trials (params.n_trials - (index - 1)) in
  (* The random row's trace key is its stable name. *)
  Search_loop.trial_span ~key:ctx.method_name ~index ~n:take (fun () ->
      let cfgs = List.init take (fun _ -> Ft_schedule.Space.random_config rng space) in
      ignore (Driver.evaluate_batch state cfgs));
  take

let policy = { Search_loop.seeds = Search_loop.default_seeds; start = trial }
