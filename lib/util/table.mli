(** Plain-text table rendering for the benchmark harness. *)

(** [render ~header rows] lays out a monospace table of left-aligned
    columns.  Raises [Invalid_argument] when a row's width differs from
    the header's. *)
val render : header:string list -> string list list -> string

val print : header:string list -> string list list -> unit

val fmt_float : ?digits:int -> float -> string

(** "1.83x"-style formatting. *)
val fmt_ratio : float -> string
