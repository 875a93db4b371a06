(** Integer helpers used throughout the schedule space machinery. *)

(** All positive divisors of [n], sorted ascending. *)
val divisors : int -> int list

(** Prime factorization with multiplicity, ascending. *)
val prime_factors : int -> int list

(** Smallest prime factor, [None] for 1. *)
val smallest_prime_factor : int -> int option

(** [factorizations n k] enumerates every ordered [k]-tuple of positive
    integers whose product is [n] — the divisible split choices of the
    paper's §4.2. *)
val factorizations : int -> int -> int list list

val binomial : int -> int -> int

(** [count_factorizations n k = List.length (factorizations n k)]
    computed in closed form (stars and bars per prime power), so that
    schedule-space sizes of 10^12 can be counted without enumeration. *)
val count_factorizations : int -> int -> int

val ceil_div : int -> int -> int

val clamp : int -> int -> int -> int

val clampf : float -> float -> float -> float
