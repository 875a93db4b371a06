(** One tuning-log entry: the result of one finished search, keyed so
    it can be found again (exactly, or by shape proximity) and
    reapplied via {!Ft_schedule.Config_io}. *)

(** Identity of the tuned problem.  [graph] is the full graph name
    (operator + every shape parameter, e.g. ["gemm_512x512x512"]);
    [op] is the scheduled compute node's tag (e.g. ["conv2d"]), which
    names the operator *kind* for cross-shape transfer; the extents
    are the scheduled node's loop extents. *)
type key = {
  graph : string;
  op : string;
  target : string;
  spatial : int list;
  reduce : int list;
}

type t = {
  key : key;
  method_name : string;
  seed : int;
  best_value : float;  (** the search objective (GFLOPS or GB/s) *)
  sim_time_s : float;  (** simulated exploration time of the search *)
  n_evals : int;
  config : string;  (** {!Ft_schedule.Config_io.to_string} of the best point *)
  source : string;
      (** Provenance of [best_value]:
          {!Ft_hw.Perf.provenance_to_string} — ["analytical"] for every
          search record (replay stays exact); a
          ["measured reps=R min_ns=N"] annotation records that the
          config was additionally timed on the host.  Records parsed
          from pre-provenance logs default to ["analytical"]. *)
}

val key_of_space : Ft_schedule.Space.t -> key

(** Full identity: every key field equal. *)
val key_equal : key -> key -> bool

(** Same operator kind on the same target with the same loop-nest rank
    — the precondition for cross-shape transfer. *)
val same_operator : key -> key -> bool

(** Log2 loop extents (spatial then reduce), and the L2 distance
    between two of equal rank: {!shape_distance}'s one formula. *)
val log2_extents : key -> float array
val log_distance : float array -> float array -> float

(** L2 distance between the log2 loop extents; [infinity] when the
    keys are not {!same_operator}. *)
val shape_distance : key -> key -> float

(** One-line JSON rendering (the tuning-log line format). *)
val to_json : t -> string

(** Parse one log line; [Error] explains the malformation. *)
val of_json : string -> (t, string) result
