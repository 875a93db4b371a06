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
   added since the last call.  Each call then makes one cumulative
   pass, newest first in the summation order of the list this
   replaced, and every pick binary-searches it, so every pick is
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

(* One scratch array per domain, as [Config.key_buf]: kept in the pool
   it would add 8 bytes per point to the search state. *)
let cum_key = Domain.DLS.new_key (fun () -> ([||] : float array))

(* [cum.(i)] sums the weights from the newest point down to point [i],
   in that order, so [cum.(0)] is the total.  A loop: a float
   accumulator passed to a recursion is boxed per step. *)
let cumulate pool =
  let cum =
    let cum = Domain.DLS.get cum_key in
    if Array.length cum >= pool.size then cum
    else begin
      let cum = Array.make (2 * pool.size) 0. in
      Domain.DLS.set cum_key cum;
      cum
    end
  in
  let acc = ref 0. in
  for i = pool.size - 1 downto 0 do
    acc := !acc +. pool.weights.(i);
    cum.(i) <- !acc
  done;
  cum

(* The index whose cumulative-weight interval, newest first, contains
   [threshold]: the largest [i >= 1] with [cum.(i) > threshold], else
   0.  Strict [>]: with [>=], a leading zero-weight point would be
   picked whenever the draw is exactly 0.  The oldest point is the
   fallback for [threshold >= total] (summation slack).  Weights are
   >= 0 or NaN, and a NaN reaches every older entry, so
   [not (cum.(i) <= threshold)] holds on a prefix of [cum]; its last
   index is the answer unless it fails [>] too (on NaN). *)
let pick_index cum size threshold =
  let lo = ref 0 and hi = ref size in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) <= threshold then hi := mid else lo := mid
  done;
  if cum.(!lo) > threshold then !lo else 0

let pick_at ~gamma ~threshold pool =
  if pool.size = 0 then invalid_arg "Sa.pick_at: empty pool";
  reweigh pool ~gamma;
  pool.points.(pick_index (cumulate pool) pool.size threshold)

let select rng ~gamma ~count pool =
  if pool.size = 0 then []
  else begin
    reweigh pool ~gamma;
    let cum = cumulate pool in
    let total = cum.(0) in
    List.init count (fun _ ->
        let i =
          if total <= 0. then pool.size - 1 - Ft_util.Rng.int rng pool.size
          else pick_index cum pool.size (Ft_util.Rng.float rng total)
        in
        (pool.points.(i), pool.values.(i)))
  end
