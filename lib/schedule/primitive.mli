(** Schedule primitives (Table 2) and the rendering of a schedule
    point into the primitive list of Fig. 3(d).

    The primitive list is the human-readable face of a configuration;
    [Ft_lower] consumes the configuration directly using the same
    conventions. *)

type t =
  | Split of { axis : string; factors : int list }
  | Reorder of { order : string list }
  | Fuse of { axes : string list; into : string }
  | Unroll of { axis : string; depth : int }
  | Vectorize of { axis : string }
  | Parallel of { axis : string }
  | Bind of { axis : string; level : string }
  | Cache of { tensor : string; scope : string }
  | Inline of { node : string }
  | Buffer of { tensor : string; elems : int }
  | Pipeline of { stages : int }
  | Partition of { banks : int }

val to_string : t -> string

(** Render a schedule point as the primitive sequence the target's
    code generator would apply. *)
val of_config : Space.t -> Config.t -> t list
