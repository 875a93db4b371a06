(* Simulated-annealing starting-point selection (§5.1): a visited point
   [p] with performance [Ep] is chosen with probability proportional to
   exp(-gamma * (Ebest - Ep) / Ebest), where Ebest is the best
   performance seen so far.  Points close to the best are exponentially
   more likely to seed the next exploration step. *)

let weight ~gamma ~best value =
  if best <= 0. then 1. else exp (-.gamma *. (best -. value) /. best)

(* H, stored once in growable arrays (oldest first) with cached
   weights.  A weight depends only on (value, best) for a given gamma,
   so all weights are recomputed only when gamma or the running best
   changes ([Float.equal] suffices: [weight] agrees on -0. and 0., and
   is NaN under any NaN); otherwise [select] weighs just the points
   added since the last call.  Totals are summed and picks scanned
   newest first, as in the list this replaced, so every pick is
   bit-for-bit the same (a Fenwick tree would change the summation
   order). *)
type 'a pool = {
  mutable points : 'a array;
  mutable values : float array;
  mutable weights : float array;
  mutable size : int;
  mutable best : float;  (* running max from neg_infinity: exact even if all <= 0 *)
  mutable weighed : int;  (* weights.(0 .. weighed - 1) are current *)
  mutable gamma : float;
}

let pool () =
  { points = [||]; values = [||]; weights = [||]; size = 0; best = neg_infinity; weighed = 0;
    gamma = nan }

let grow arr x n = Array.append arr (Array.make (max 16 n) x)

let add pool point value =
  if pool.size = Array.length pool.points then begin
    pool.points <- grow pool.points point pool.size;
    pool.values <- grow pool.values 0. pool.size;
    pool.weights <- grow pool.weights 0. pool.size
  end;
  pool.points.(pool.size) <- point;
  pool.values.(pool.size) <- value;
  pool.size <- pool.size + 1;
  let best = Float.max pool.best value in
  if not (Float.equal best pool.best) then pool.weighed <- 0;
  pool.best <- best

let size pool = pool.size
let value pool i = pool.values.(i)

let to_list pool =
  List.init pool.size (fun i ->
      let j = pool.size - 1 - i in
      (pool.points.(j), pool.values.(j)))

let reweigh pool ~gamma =
  if not (Float.equal gamma pool.gamma) then pool.weighed <- 0;
  pool.gamma <- gamma;
  for i = pool.weighed to pool.size - 1 do
    pool.weights.(i) <- weight ~gamma ~best:pool.best pool.values.(i)
  done;
  pool.weighed <- pool.size

(* The index whose cumulative-weight interval, newest first, contains
   [threshold].  Strict [>]: with [>=], a leading zero-weight point
   would be picked whenever the draw is exactly 0; this way it spans an
   empty interval.  The oldest point is the fallback for
   [threshold >= total] (summation slack). *)
let pick_index pool threshold =
  (* A loop: a float accumulator passed to a recursion is boxed per step. *)
  let acc = ref 0. and i = ref (pool.size - 1) in
  while !i > 0 && (acc := !acc +. pool.weights.(!i); not (!acc > threshold)) do decr i done;
  !i

let pick_at ~gamma ~threshold pool =
  if pool.size = 0 then invalid_arg "Sa.pick_at: empty pool";
  reweigh pool ~gamma;
  pool.points.(pick_index pool threshold)

let select rng ~gamma ~count pool =
  if pool.size = 0 then []
  else begin
    reweigh pool ~gamma;
    let sum = ref 0. in
    for i = pool.size - 1 downto 0 do sum := !sum +. pool.weights.(i) done;
    let total = !sum in
    List.init count (fun _ ->
        let i =
          if total <= 0. then pool.size - 1 - Ft_util.Rng.int rng pool.size
          else pick_index pool (Ft_util.Rng.float rng total)
        in
        (pool.points.(i), pool.values.(i)))
  end

