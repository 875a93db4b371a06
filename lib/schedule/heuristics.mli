(** Generic shape-aware tiling heuristics: library-style candidate
    schedules and exploration seed points. *)

val closest_divisor : int -> int -> int

(** Library-style configs: each spatial axis is a divisible split
    approximating the per-level targets (outer-to-inner) under a free
    outermost level. *)
val gpu_config :
  Space.t -> threads_per_axis:int -> vthread:int -> inner:int -> rtile:int -> Config.t

val cpu_config :
  Space.t -> mid:int -> inner:int -> vec:int -> rtile:int -> Config.t

val fpga_config :
  Space.t -> pe_per_axis:int -> tile:int -> partition_id:int -> Config.t

(** Two generic starting points for the target, mixed into the
    exploration's initial set. *)
val seed_configs : Space.t -> Config.t list
