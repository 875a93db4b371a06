(** Roofline analysis: arithmetic intensity and the attainable
    performance ceiling of an operator per target.  No schedule can
    exceed [ceiling_gflops]. *)

type t = {
  flops : int;
  compulsory_bytes : int;  (** inputs read once + output written once *)
  intensity : float;  (** FLOPs per compulsory byte *)
}

val of_graph : Ft_ir.Op.graph -> t

(** min(compute peak, intensity x memory bandwidth), in GFLOPS. *)
val ceiling_gflops : t -> Ft_schedule.Target.t -> float

(** True when the bandwidth roof is below the compute peak. *)
val memory_bound : t -> Ft_schedule.Target.t -> bool

val pp : Format.formatter -> t -> unit
