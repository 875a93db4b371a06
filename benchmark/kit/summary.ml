(* Order statistics for the benchmark's latency series. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: empty series"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank (1-based) of the [pct]-th percentile of [n] samples:
   the smallest rank with at least [pct]% of the series at or below
   it.  Integer arithmetic, so p90 of 100 samples is rank 90 exactly. *)
let rank ~pct n = max 1 (((n * pct) + 99) / 100)

let samples_beyond ~pct n = n - rank ~pct n

(* A tail percentile is only reported when at least ten samples lie
   beyond it; with fewer, the value is one of the last few samples and
   moves with every outlier. *)
let tail ~pct xs =
  let n = List.length xs in
  if n = 0 || samples_beyond ~pct n < 10 then None
  else Some (sorted xs).(rank ~pct n - 1)

let or_zero f xs = if xs = [] then 0. else f xs
