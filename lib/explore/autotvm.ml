open Ft_schedule

(* AutoTVM stand-in (§6.5): a gradient-boosted-tree cost model (our
   XGBoost stand-in), simulated-annealing proposal and batched
   measurements over a *template*: FlexTensor's space with the
   structure fixed (loop order, inlining, fusion depth, a 2-way reduce
   split, no vectorize/partition choice, few unroll settings), which is
   why FlexTensor's space is orders of magnitude larger (the paper
   measures 2027x for C2D). *)

let snap extent targets =
  List.sort_uniq compare (List.map (Heuristics.closest_divisor extent) targets)

(* Paper-era spatial splits (e/(f3*f4), 1, f3, f4): no vthread, snapped factors. *)
let paper_era_splits extent =
  let inner = snap extent [ 1; 2; 4 ] in
  List.concat_map
    (fun f3 ->
      List.filter_map
        (fun f4 ->
          if extent mod (f3 * f4) = 0 then Some [| extent / (f3 * f4); 1; f3; f4 |] else None)
        inner)
    (snap extent [ 1; 4; 8; 16; 32 ])

let template kind (space : Space.t) =
  (* A 2-way reduce split (extent/r, 1, r) per inner factor r. *)
  let reduce_splits inner =
    Array.map
      (fun e -> Space.One_of (List.map (fun r -> [| e / r; 1; r |]) (inner e)))
      space.reduce_extents
  in
  let spatial_splits, reduce_splits, unroll_ids =
    match kind with
    | `Divisor ->
        (space.domains.spatial_splits, reduce_splits Ft_util.Mathx.divisors, [| 0; 2 |])
    | `Paper_era ->
        ( Array.map (fun e -> Space.One_of (paper_era_splits e)) space.spatial_extents,
          reduce_splits (fun e -> snap e [ 1; 4; 8; 16 ]),
          [| 1 |] )
  in
  let cpu = match space.target with Target.Cpu _ -> true | _ -> false in
  {
    space with
    domains =
      {
        spatial_splits;
        reduce_splits;
        unroll_ids;
        order_ids = [| 0 |];
        fuse_levels = [| 1 |];
        vectorize = [| cpu |];
        inline = [| true |];
        partition_ids = [| 0 |];
      };
  }

(* The annealing proposal step: redraw one split or the unroll id. *)
let mutate rng (space : Space.t) cfg =
  let n = Array.length space.spatial_extents + Array.length space.reduce_extents in
  Space.redraw rng space cfg (Ft_util.Rng.int rng (n + 1))

let training_cost = 2.0
let scoring_cost_per_candidate = 0.0002

(* Measurements per round and proposals scored per round. *)
let batch = 8
let population = 128

(* The search as a [Search_loop] policy: each trial is one AutoTVM
   round (refit the GBT model, propose a population, rank, measure a
   batch).  H is seeded with random points of the space, never the
   schedule-space heuristics, and then the warm-start transfer seeds,
   after all RNG draws as the other methods do. *)
let seeds (p : Search_loop.params) rng space =
  List.init batch (fun _ -> Space.random_config rng space) @ p.transfer_seeds

(* [pool]: the points measured so far, newest first. *)
let trial pool (ctx : Search_loop.ctx) ~index =
  let { Search_loop.rng; space; state; _ } = ctx in
  Search_loop.trial_span ~key:"autotvm" ~index (fun () ->
      (* Retrain the cost model on everything measured so far. *)
      let cfgs, ys = List.split (Ft_anneal.Sa.to_list state.pool) in
      let xs = Array.of_list (List.map (Space.features space) cfgs) in
      let model = Ft_gbt.Boost.fit xs (Array.of_list ys) in
      if Ft_obs.Trace.active () then
        Ft_obs.Trace.event "gbt.train" [ ("points", Int (Array.length xs)) ];
      Driver.charge state training_cost;
      (* Annealing proposal: a population of mutations of previous
         points plus fresh random ones, ranked by the model. *)
      let proposals =
        List.init population (fun i ->
            if i mod 2 = 0 || !pool = [] then Space.random_config rng space
            else mutate rng space (Ft_util.Rng.choose rng !pool))
      in
      Driver.charge state (float_of_int population *. scoring_cost_per_candidate);
      let score cfg = (cfg, Ft_gbt.Boost.predict model (Space.features space cfg)) in
      let ranked = List.sort (fun (_, a) (_, b) -> compare b a) (List.map score proposals) in
      let fresh = List.filter (fun (cfg, _) -> not (Driver.seen state cfg)) ranked in
      let chosen = List.map fst (List.filteri (fun i _ -> i < batch) fresh) in
      (* The round's measurements form one batch — the AutoTVM
         workflow the paper compares against measures its per-round
         candidates concurrently ([n_parallel] models that on the
         simulated clock). *)
      ignore (Driver.evaluate_batch state chosen);
      pool := chosen @ !pool);
  1

let policy =
  {
    Search_loop.seeds;
    start =
      (fun ctx ->
        trial (ref (List.init batch (fun _ -> Space.random_config ctx.rng ctx.space))) ctx);
  }
