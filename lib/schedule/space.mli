(** Schedule-space generation (§4.2).

    The space is the cartesian product of, per spatial axis, all
    ordered 4-way divisible factorizations; per reduce axis, all 3-way
    factorizations; a pruned set of loop-order templates; unroll-depth
    choices; and per-hardware knobs (CPU fuse depth + vectorize, FPGA
    memory partitioning, producer inlining).  The paper's three pruning
    rules are built in: primitive-combination depth is fixed by the
    level counts, splits are divisible-only, and per-hardware decisions
    (what gets parallelized/bound/pipelined) are pre-determined. *)

val n_spatial_parts : int
val n_reduce_parts : int
val n_orders : int
val unroll_depths : int array
val partitions : int array

type t = {
  graph : Ft_ir.Op.graph;
  node : Ft_ir.Op.t;  (** the compute node being scheduled *)
  target : Target.t;
  spatial_extents : int array;
  reduce_extents : int array;
  has_producers : bool;
  (* The config-independent terms of the performance models: plain
     data, because the measurement sandbox marshals the space. *)
  flops : int;  (** of the compute node *)
  body_flops : int;  (** per body evaluation *)
  spatial_points : int;
  reduce_points : int;
  output_bytes : int;
  input_bytes : int;  (** every tensor the node reads, once *)
  producer_bytes : int;  (** producers materialized: written, then read back *)
  n_producers : int;
  reads : Footprint.reads list;  (** the node's reads, compiled *)
}

(** The graph's heaviest node, which the back-end schedules. *)
val compute_node : Ft_ir.Op.graph -> Ft_ir.Op.t

(** Build the space of the graph's {!compute_node}, with every
    config-independent model term computed once. *)
val make : Ft_ir.Op.graph -> Target.t -> t

(** Number of points in the (pruned) space, in closed form. *)
val size : t -> float

(** The naive point: no tiling, no unrolling. *)
val default_config : t -> Config.t

(** Random ordered [parts]-way divisible factorization of [extent]. *)
val random_split : Ft_util.Rng.t -> int -> int -> int array

val random_config : Ft_util.Rng.t -> t -> Config.t

(** Structural membership check (factor products, knob ranges). *)
val valid : t -> Config.t -> bool

val unroll_depth : Config.t -> int
val partition : Config.t -> int

(** Fixed-length feature embedding of a point for the Q-network. *)
val features : t -> Config.t -> float array

val feature_dim : t -> int
