open Ft_schedule

(* AutoTVM stand-in (§6.5): tuning restricted to a manually written
   schedule *template*, guided by a gradient-boosted-tree cost model
   (our XGBoost stand-in) with batched measurements and simulated-
   annealing candidate proposal.

   As in real AutoTVM, the template's split knobs enumerate every
   divisible factorization of each axis; what the template fixes is the
   *structure*: the loop order, producer inlining, fusion depth, the
   reduce split depth (2-way instead of FlexTensor's 3-way), no
   vectorize/partition choices, and only two unroll settings.  Those
   missing dimensions are why FlexTensor's generated space is orders of
   magnitude larger (the paper measures 2027x for C2D). *)

let unroll_ids = [ 0; 2 ]

(* Two template generations:

   - [`Divisor]: the mature mainline templates — every divisible
     factorization of each axis is a knob value (like TVM's
     [define_split]), two unroll settings.
   - [`Paper_era]: the 2019-era templates the paper compared against —
     no virtual-threading (the register-tiling level is pinned to 1),
     thread/inner knobs snapped to a few power-of-two targets, a single
     reduce-split knob from a small set, fixed unrolling.  The authors
     had to write these templates themselves for C1D/T1D/C3D/T3D. *)
type template = [ `Divisor | `Paper_era ]

type knobs = {
  spatial_splits : int array array;
  reduce_inner : int array;  (* 2-way reduce split: (extent/r, 1, r) *)
  unroll : int;
}

let snap extent targets =
  List.sort_uniq compare
    (List.map (fun t -> Ft_schedule.Heuristics.closest_divisor extent t) targets)

let paper_era_axis_choices extent =
  let threads = snap extent [ 1; 4; 8; 16; 32 ] in
  let inner = snap extent [ 1; 2; 4 ] in
  List.concat_map
    (fun f3 ->
      List.filter_map
        (fun f4 -> if extent mod (f3 * f4) = 0 then Some (f3, f4) else None)
        inner)
    threads

let paper_era_reduce_choices extent = snap extent [ 1; 4; 8; 16 ]

let template_size ?(template = `Divisor) (space : Space.t) =
  match template with
  | `Divisor ->
      let spatial =
        Array.fold_left
          (fun acc extent ->
            acc
            *. float_of_int
                 (Ft_util.Mathx.count_factorizations extent Space.n_spatial_parts))
          1. space.spatial_extents
      in
      let reduce =
        Array.fold_left
          (fun acc extent ->
            acc *. float_of_int (List.length (Ft_util.Mathx.divisors extent)))
          1. space.reduce_extents
      in
      spatial *. reduce *. float_of_int (List.length unroll_ids)
  | `Paper_era ->
      let spatial =
        Array.fold_left
          (fun acc extent ->
            acc *. float_of_int (List.length (paper_era_axis_choices extent)))
          1. space.spatial_extents
      in
      let reduce =
        Array.fold_left
          (fun acc extent ->
            acc *. float_of_int (List.length (paper_era_reduce_choices extent)))
          1. space.reduce_extents
      in
      spatial *. reduce

let to_config (space : Space.t) knobs =
  let reduce =
    Array.mapi
      (fun i extent ->
        let r = knobs.reduce_inner.(i) in
        [| extent / r; 1; r |])
      space.reduce_extents
  in
  let vectorize = match space.target with Target.Cpu _ -> true | _ -> false in
  (* Knobs, like configs, are never mutated: the config shares their splits. *)
  let spatial = knobs.spatial_splits in
  { (Space.default_config space) with spatial; reduce; unroll_id = knobs.unroll; vectorize }

let random_spatial_split template rng extent =
  match template with
  | `Divisor -> Space.random_split rng Space.n_spatial_parts extent
  | `Paper_era ->
      let f3, f4 = Ft_util.Rng.choose rng (paper_era_axis_choices extent) in
      [| extent / (f3 * f4); 1; f3; f4 |]

let random_reduce_split template rng extent =
  match template with
  | `Divisor -> Ft_util.Rng.choose rng (Ft_util.Mathx.divisors extent)
  | `Paper_era -> Ft_util.Rng.choose rng (paper_era_reduce_choices extent)

let random_unroll template rng =
  match template with
  | `Divisor -> Ft_util.Rng.choose rng unroll_ids
  | `Paper_era -> 1

let random_knobs ?(template = `Divisor) rng (space : Space.t) =
  {
    spatial_splits =
      Array.map (random_spatial_split template rng) space.spatial_extents;
    reduce_inner = Array.map (random_reduce_split template rng) space.reduce_extents;
    unroll = random_unroll template rng;
  }

(* Mutate one knob — the annealing proposal step. *)
let mutate ?(template = `Divisor) rng (space : Space.t) knobs =
  let spatial_splits = Array.copy knobs.spatial_splits in
  let reduce_inner = Array.copy knobs.reduce_inner in
  let n_spatial = Array.length spatial_splits in
  let n_reduce = Array.length reduce_inner in
  let which = Ft_util.Rng.int rng (n_spatial + n_reduce + 1) in
  let unroll =
    if which = n_spatial + n_reduce then random_unroll template rng else knobs.unroll
  in
  if which < n_spatial then
    spatial_splits.(which) <-
      random_spatial_split template rng space.spatial_extents.(which)
  else if which < n_spatial + n_reduce then
    reduce_inner.(which - n_spatial) <-
      random_reduce_split template rng space.reduce_extents.(which - n_spatial);
  { spatial_splits; reduce_inner; unroll }

let training_cost = 2.0
let scoring_cost_per_candidate = 0.0002

(* Measurements per round and proposals scored per round. *)
let batch = 8
let population = 128

(* The search itself as a [Search_loop] policy: each trial is one
   AutoTVM round (refit the GBT model, propose a population, rank,
   measure a batch).  H is seeded with random template instantiations
   instead of the schedule-space heuristics — AutoTVM never sees the
   full space — and warm-start transfer seeds are appended after all
   RNG draws, exactly as the other methods do. *)
let seeds template (p : Search_loop.params) rng space =
  List.init batch (fun _ -> to_config space (random_knobs ~template rng space))
  @ p.transfer_seeds

(* The knob settings measured so far, newest first, are the state kept
   across rounds. *)
let trial template knob_pool (ctx : Search_loop.ctx) ~index =
  let { Search_loop.rng; space; state; _ } = ctx in
  Search_loop.trial_span ~key:"autotvm" ~index (fun () ->
      (* Retrain the cost model on everything measured so far. *)
      let evaluated = Ft_anneal.Sa.to_list state.pool in
      let xs =
        Array.of_list (List.map (fun (cfg, _) -> Space.features space cfg) evaluated)
      in
      let ys = Array.of_list (List.map snd evaluated) in
      let model = Ft_gbt.Boost.fit xs ys in
      if Ft_obs.Trace.active () then
        Ft_obs.Trace.event "gbt.train" [ ("points", Int (Array.length xs)) ];
      Driver.charge state training_cost;
      (* Annealing proposal: a population of mutations of previous knob
         settings plus fresh random templates, ranked by the model. *)
      let proposals =
        List.init population (fun i ->
            if i mod 2 = 0 || !knob_pool = [] then random_knobs ~template rng space
            else mutate ~template rng space (Ft_util.Rng.choose rng !knob_pool))
      in
      Driver.charge state (float_of_int population *. scoring_cost_per_candidate);
      let scored =
        List.map
          (fun knobs ->
            let cfg = to_config space knobs in
            (knobs, cfg, Ft_gbt.Boost.predict model (Space.features space cfg)))
          proposals
      in
      let ranked = List.sort (fun (_, _, a) (_, _, b) -> compare b a) scored in
      let fresh = List.filter (fun (_, cfg, _) -> not (Driver.seen state cfg)) ranked in
      let chosen = List.filteri (fun i _ -> i < batch) fresh in
      (* The round's measurements form one batch — the AutoTVM
         workflow the paper compares against measures its per-round
         candidates concurrently ([n_parallel] models that on the
         simulated clock). *)
      ignore (Driver.evaluate_batch state (List.map (fun (_, cfg, _) -> cfg) chosen));
      knob_pool := List.map (fun (knobs, _, _) -> knobs) chosen @ !knob_pool);
  1

let policy template =
  {
    Search_loop.seeds = seeds template;
    start =
      (fun ctx ->
        trial template
          (ref (List.init batch (fun _ -> random_knobs ~template ctx.rng ctx.space)))
          ctx);
  }
