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

(** The values each decision may take, which sampling, membership, size
    and the neighbourhood read: {!make} builds the full domains, a
    template narrows them.  Plain data like the rest of {!t}; scalar
    domains are sorted, each value once; a pinned knob draws nothing. *)
type split_domain =
  | Divisible  (** any ordered divisible factorization *)
  | One_of of int array list  (** one of these tuples, one [Rng.choose] *)

type domains = {
  spatial_splits : split_domain array;  (** one per spatial axis *)
  reduce_splits : split_domain array;
  order_ids : int array;
  unroll_ids : int array;
  fuse_levels : int array;
  vectorize : bool array;
  inline : bool array;
  partition_ids : int array;
}

type t = {
  graph : Ft_ir.Op.graph;
  node : Ft_ir.Op.t;  (** the compute node being scheduled *)
  target : Target.t;
  spatial_extents : int array;
  reduce_extents : int array;
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
  domains : domains;
}

(** The graph's heaviest node, which the back-end schedules. *)
val compute_node : Ft_ir.Op.graph -> Ft_ir.Op.t

(** Build the full space of the graph's {!compute_node}, with every
    config-independent model term computed once. *)
val make : Ft_ir.Op.graph -> Target.t -> t

(** Number of points in the (pruned) space, in closed form, counting
    only the knobs the target's model reads. *)
val size : t -> float

(** The naive point: no tiling, no unrolling. *)
val default_config : t -> Config.t

val random_config : Ft_util.Rng.t -> t -> Config.t

(** [redraw rng space cfg i]: [cfg] with one decision drawn again as
    {!random_config} draws it: spatial axis [i], or past the spatial
    axes reduce axis [i - n_spatial], or past those the unroll id. *)
val redraw : Ft_util.Rng.t -> t -> Config.t -> int -> Config.t

(** Membership: factor products, and every decision in its domain. *)
val valid : t -> Config.t -> bool

(** Membership in one domain, for a move that changes one decision. *)
val split_allowed : split_domain -> int array -> bool

val mem : int array -> int -> bool

val unroll_depth : Config.t -> int
val partition : Config.t -> int

(** Fixed-length feature embedding of a point for the Q-network. *)
val features : t -> Config.t -> float array

val feature_dim : t -> int
