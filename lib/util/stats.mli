(** Small statistics helpers for reporting results (the paper reports
    geometric-mean speedups throughout). *)

val mean : float list -> float

(** Geometric mean; raises on empty input or non-positive values. *)
val geomean : float list -> float

val minimum : float list -> float

val maximum : float list -> float

(** Scale a series so its maximum is 1.0 (for "normalized performance"
    figures). *)
val normalize_to_max : float list -> float list

(** 1-based fractional ranks (ties share the mean of their positions). *)
val ranks : float array -> float array

(** Spearman rank correlation (Pearson on fractional ranks); 0. when
    either series is constant, raises on mismatched or <2-point
    input. *)
val spearman : float array -> float array -> float
