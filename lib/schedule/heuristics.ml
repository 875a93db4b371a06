(* Generic, shape-aware tiling heuristics.

   These produce the kind of schedule a competent library engineer
   writes without tuning to one shape: threads/parallelism on the
   largest axes, vectorization/contiguity on the innermost axis,
   moderate register tiling, a reduce staging depth.  They serve two
   roles: candidate schedules for the hand-tuned-library baselines, and
   (two of them) initial points for the exploration — the paper's
   front-end likewise bakes per-hardware knowledge into the space. *)

let log_ratio a b = Float.abs (log (float_of_int a /. float_of_int b))

let closest_divisor extent target =
  List.fold_left
    (fun best d -> if log_ratio d target < log_ratio best target then d else best)
    1
    (Ft_util.Mathx.divisors extent)

(* Divisible split approximating [targets] for all levels but the
   outermost, chosen innermost-first. *)
let split_near ~extent ~targets =
  let n = List.length targets + 1 in
  let factors = Array.make n 1 in
  let remaining = ref extent in
  List.iteri
    (fun i target ->
      let level = n - 1 - i in
      let f = closest_divisor !remaining target in
      factors.(level) <- f;
      remaining := !remaining / f)
    (List.rev targets);
  factors.(0) <- !remaining;
  factors

(* Indices of the axes sorted by extent, largest first. *)
let rank_by_extent extents =
  let idx = Array.init (Array.length extents) Fun.id in
  Array.sort (fun a b -> compare extents.(b) extents.(a)) idx;
  idx

let reduce_splits (space : Space.t) ~rtile =
  Array.mapi
    (fun i extent ->
      let want = if i = 0 then rtile else min extent 4 in
      split_near ~extent ~targets:[ 1; want ])
    space.reduce_extents

(* Spill thread factors into the serial-inner level until the block
   fits the device's thread limit (awkward extents such as 111 = 3 x 37
   would otherwise force oversized blocks). *)
let cap_threads spatial max_threads =
  let product () = Array.fold_left (fun acc parts -> acc * parts.(2)) 1 spatial in
  let continue_ = ref (product () > max_threads) in
  while !continue_ do
    let worst = ref (-1) in
    Array.iteri
      (fun i parts ->
        if parts.(2) > 1 && (!worst < 0 || parts.(2) > spatial.(!worst).(2)) then
          worst := i)
      spatial;
    if !worst < 0 then continue_ := false
    else begin
      let parts = spatial.(!worst) in
      (match Ft_util.Mathx.smallest_prime_factor parts.(2) with
      | Some p ->
          parts.(2) <- parts.(2) / p;
          parts.(3) <- parts.(3) * p
      | None -> ());
      continue_ := product () > max_threads
    end
  done

let gpu_config (space : Space.t) ~threads_per_axis ~vthread ~inner ~rtile =
  let extents = space.spatial_extents in
  let n = Array.length extents in
  let rank = rank_by_extent extents in
  let biggest = if n > 0 then rank.(0) else 0 in
  let second = if n > 1 then rank.(1) else biggest in
  let spatial =
    Array.mapi
      (fun i extent ->
        let want_threads =
          if i = biggest || i = second then threads_per_axis else 1
        in
        let want_vthread = if i = biggest then vthread else 1 in
        let want_inner = if i = n - 1 then inner else 1 in
        split_near ~extent ~targets:[ want_vthread; want_threads; want_inner ])
      extents
  in
  let max_threads =
    match space.target with
    | Target.Gpu spec -> spec.max_threads_per_block
    | Target.Cpu _ | Target.Fpga _ -> 1024
  in
  cap_threads spatial max_threads;
  { (Space.default_config space) with spatial; reduce = reduce_splits space ~rtile; unroll_id = 1 }

let cpu_config (space : Space.t) ~mid ~inner ~vec ~rtile =
  let extents = space.spatial_extents in
  let n = Array.length extents in
  let rank = rank_by_extent extents in
  let biggest = if n > 0 then rank.(0) else 0 in
  let spatial =
    Array.mapi
      (fun i extent ->
        let want_vec = if i = n - 1 then vec else 1 in
        let want_inner = if i = biggest then inner else 1 in
        let want_mid = if i = biggest then mid else 1 in
        split_near ~extent ~targets:[ want_mid; want_inner; want_vec ])
      extents
  in
  {
    (Space.default_config space) with
    spatial;
    reduce = reduce_splits space ~rtile;
    unroll_id = 1;
    fuse_levels = 2;
    vectorize = true;
  }

let fpga_config (space : Space.t) ~pe_per_axis ~tile ~partition_id =
  let extents = space.spatial_extents in
  let n = Array.length extents in
  let rank = rank_by_extent extents in
  let biggest = if n > 0 then rank.(0) else 0 in
  let second = if n > 1 then rank.(1) else biggest in
  let spatial =
    Array.mapi
      (fun i extent ->
        let want_pe = if i = biggest || i = second then pe_per_axis else 1 in
        let want_tile = if i = n - 1 then tile else 1 in
        split_near ~extent ~targets:[ 1; want_pe; want_tile ])
      extents
  in
  let rtile = min 4 (max 1 (Array.length space.reduce_extents)) in
  {
    (Space.default_config space) with
    spatial;
    reduce = reduce_splits space ~rtile;
    unroll_id = 1;
    partition_id;
  }

(* Two generic starting points per target, used to seed exploration. *)
let seed_configs (space : Space.t) =
  match space.target with
  | Target.Gpu _ ->
      [
        gpu_config space ~threads_per_axis:16 ~vthread:2 ~inner:2 ~rtile:8;
        gpu_config space ~threads_per_axis:8 ~vthread:4 ~inner:4 ~rtile:16;
      ]
  | Target.Cpu _ ->
      [
        cpu_config space ~mid:4 ~inner:4 ~vec:8 ~rtile:8;
        cpu_config space ~mid:8 ~inner:2 ~vec:8 ~rtile:16;
      ]
  | Target.Fpga _ ->
      [
        fpga_config space ~pe_per_axis:24 ~tile:4 ~partition_id:3;
        fpga_config space ~pe_per_axis:16 ~tile:8 ~partition_id:2;
      ]
