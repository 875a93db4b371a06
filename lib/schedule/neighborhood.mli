(** The high-dimensional rearrangement of the schedule space (§4.2).

    Instead of a flat 1-D list, each point has one neighbour per
    direction; factor-shift directions move one prime factor between
    two split positions of the same axis, so neighbouring points have
    structurally similar schedules — the locality property the paper's
    search exploits. *)

type move =
  | Factor_shift of { kind : [ `Spatial | `Reduce ]; axis : int; src : int; dst : int }
  | Order_step of int
  | Unroll_step of int
  | Fuse_step of int
  | Vectorize_toggle
  | Inline_toggle
  | Partition_step of int

(** All directions of a space, in a stable order (the Q-network's
    action indexing); a pinned knob has none. *)
val directions : Space.t -> move list

(** Apply one move; [None] when the result would leave the space or
    one of its {!Space.domains}.  The result shares every factor array
    the move does not change with the source config (see {!Config.t}). *)
val apply : Space.t -> Config.t -> move -> Config.t option

(** All valid (move, neighbour) pairs of a point. *)
val neighbors : Space.t -> Config.t -> (move * Config.t) list
