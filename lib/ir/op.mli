(** Operator nodes and mini-graphs (§4.1).

    A node is a nested loop: spatial axes (one per output dimension, no
    data dependence) and reduce axes (accumulated), with a scalar body
    evaluated per point.  A mini-graph connects nodes through named
    tensors — e.g. a transposed convolution is an expansion node, a
    padding node, and a convolution node. *)

type axis = { axis_name : string; extent : int }

(** Smart constructor; raises on non-positive extents. *)
val axis : string -> int -> axis

(** How reduce-axis contributions are combined. *)
type combine = Acc_sum | Acc_max

type t = {
  tag : string;  (** human-readable node identity, e.g. ["conv2d.pad"] *)
  output : string;  (** name of the produced tensor *)
  spatial : axis list;
  reduce : axis list;
  init : float;  (** accumulator initial value (0 for sums) *)
  combine : combine;
  body : Expr.texpr;  (** value accumulated (or assigned when [reduce = []]) *)
}

type graph = {
  graph_name : string;
  inputs : (string * int list) list;  (** external tensors and their shapes *)
  ops : t list;  (** topologically sorted *)
  output : string;  (** name of the final output tensor *)
}

val out_shape : t -> int list
val spatial_points : t -> int
val reduce_points : t -> int

(** FLOPs per body evaluation (arith ops, +1 accumulate when reducing). *)
val body_flops : t -> int

(** Total floating point operations of the node. *)
val flops : t -> int

val tensors_read : t -> string list
val graph_flops : graph -> int

(** Find the op producing a tensor, if any. *)
val find_op : graph -> string -> t option

(** The op producing the graph output; raises if the graph is malformed. *)
val output_op : graph -> t

(** Shape of any tensor (input or intermediate) in the graph. *)
val tensor_shape : graph -> string -> int list option

(** All ops reading a given tensor. *)
val consumers : graph -> string -> t list

(** All ops whose outputs this op reads. *)
val producers : graph -> t -> t list

(** Structural well-formedness: distinct names, topological order,
    access arity matches tensor rank, no unbound index variables.
    Returns the graph, or raises [Invalid_argument] naming the first
    violation. *)
val validate_exn : graph -> graph

val pp_graph : Format.formatter -> graph -> unit
