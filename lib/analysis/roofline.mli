(** Roofline analysis: arithmetic intensity and the attainable
    performance ceiling of an operator per target.  No schedule can
    exceed [ceiling_gflops]; exploration results can be graded against
    it with [efficiency]. *)

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

(** [efficiency r target ~gflops] is the fraction of the roofline an
    achieved throughput represents. *)
val efficiency : t -> Ft_schedule.Target.t -> gflops:float -> float

val pp : Format.formatter -> t -> unit
