(** A point in the schedule space — the vector encoding of Fig. 3(e).

    Interpretation conventions shared by lowering and the hardware
    models:

    - [spatial.(a)] holds the multi-level split factors of spatial axis
      [a], outermost first.  On GPU the four levels map to
      [blockIdx / virtual thread / threadIdx / inner-serial]; on CPU to
      [parallel-outer / middle tile / inner tile / vector]; on FPGA to
      [round-outer / round-inner / PE-parallel / PE-serial].
    - [reduce.(r)] holds three factors [outer / middle / inner]; on GPU
      the inner factor is the shared-memory staging depth.
    - [order_id] selects one of the pruned loop-order templates.
    - [unroll_id] indexes the unroll-depth choices.
    - [fuse_levels] (CPU) is how many outer split levels are fused into
      the single parallel loop (1 or 2).
    - [vectorize] (CPU) enables SIMD on the innermost loop.
    - [inline] inlines producer nodes (padding) into the compute node
      instead of materializing them.
    - [partition_id] (FPGA) indexes memory-partition bank counts.

    A config is immutable once built: derived configs (neighbours,
    [{ cfg with ... }]) share the factor arrays they do not change, so
    no factor array is written after its config is constructed. *)

type t = {
  spatial : int array array;
  reduce : int array array;
  order_id : int;
  unroll_id : int;
  fuse_levels : int;
  vectorize : bool;
  inline : bool;
  partition_id : int;
}

(** A deep copy, sharing no array: only for a caller that needs
    physically distinct arrays (the [config equal] micro-benchmark). *)
val copy : t -> t

val product_level : int array array -> int -> int

(** [order_perm id] maps a loop-order template id (0..5) to the
    ordering of the three serial loop groups: 0 = spatial-middle,
    1 = reduce-outer, 2 = reduce-middle. *)
val order_perm : int -> int array

(** Canonical string serialization, equal exactly for {!equal} configs.
    Built only where its bytes seed something (the fault plan's hash,
    transfer dedup, a dispatch's input); search bookkeeping uses {!Tbl}. *)
val compute_key : t -> string

(** Structural equality. *)
val equal : t -> t -> bool

(** Structural hash: [equal a b] implies [hash a = hash b]. *)
val hash : t -> int

(** Tables keyed by {!equal}/{!hash}; keys rely on configs never being
    mutated. *)
module Tbl : Hashtbl.S with type key = t
