(** Tile footprint analysis.

    Computes, for a schedule tile, how many elements of each input
    tensor the tile touches — the quantity that drives shared-memory
    sizing on GPU, cache fitting on CPU, and BRAM buffers on FPGA.
    A node's index expressions are compiled once (by {!Space.make});
    each query then only reads tile widths by axis slot. *)

(** An index expression compiled against a node's loop axes: slot [i]
    is the [i]-th axis of [spatial @ reduce]; a variable that is no
    loop axis is fixed. *)
type span

(** Every access of one tensor, each a compiled index per dimension. *)
type reads = { tensor : string; accesses : span list list }

(** Compile one index expression against the given axes. *)
val index : Ft_ir.Op.axis list -> Ft_ir.Expr.iexpr -> span

(** [span widths s] is an upper bound on the number of distinct values
    the index takes when axis slot [i] ranges over a window of width
    [widths.(i)]. *)
val span : int array -> span -> int

(** The distinct tensors [op] reads. *)
val compile : Ft_ir.Op.t -> reads list

(** Footprint (elements) of one tensor in one tile: the largest over
    its accesses, which overlap in practice. *)
val tensor_elems : int array -> reads -> int

(** Sum of {!tensor_elems} over the tensors read. *)
val total : int array -> reads list -> int

(** Tile widths by slot from a config: a spatial axis spans the
    product of its split factors at [spatial_levels], a reduce axis at
    [reduce_levels]. *)
val widths : Config.t -> spatial_levels:int list -> reduce_levels:int list -> int array
