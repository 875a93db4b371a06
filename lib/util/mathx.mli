(** Integer helpers used throughout the schedule space machinery. *)

(** All positive divisors of [n], sorted ascending. *)
val divisors : int -> int list

(** Smallest prime factor, [None] for 1. *)
val smallest_prime_factor : int -> int option

(** [factorizations n k] enumerates every ordered [k]-tuple of positive
    integers whose product is [n] — the divisible split choices of the
    paper's §4.2. *)
val factorizations : int -> int -> int list list

(** [count_factorizations n k = List.length (factorizations n k)]
    computed in closed form (stars and bars per prime power), so that
    schedule-space sizes of 10^12 can be counted without enumeration. *)
val count_factorizations : int -> int -> int

val ceil_div : int -> int -> int

(** [log2 x = log x /. log 2.], the one definition every model and
    feature that takes a base-2 logarithm shares. *)
val log2 : float -> float

val clamp : int -> int -> int -> int

val clampf : float -> float -> float -> float

(** [max_at row idx] is [Float.max] folded over [row.(i)] for [i] in
    [idx] from [neg_infinity], bit for bit, calling it only on ties and nans. *)
val max_at : float array -> int list -> float
