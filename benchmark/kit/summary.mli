(** Order statistics for the benchmark's latency series. *)

(** Median (mean of the two middle samples for even counts).  Raises
    [Invalid_argument] on an empty series. *)
val median : float list -> float

(** Nearest rank (1-based) of the [pct]-th percentile among [n]
    samples. *)
val rank : pct:int -> int -> int

(** The [pct]-th percentile (nearest rank), or [None] unless at least
    ten samples lie beyond it — p90 needs at least 100 samples. *)
val tail : pct:int -> float list -> float option

(** [or_zero f xs] is [f xs], or 0 for an empty series — a metric
    whose series a workload does not have. *)
val or_zero : (float list -> float) -> float list -> float
