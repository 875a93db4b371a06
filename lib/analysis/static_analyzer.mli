(** Front-end static analysis (§4.1): extracts the statistical
    information (loop counts, trip counts, loop order) and structural
    information (node/input/output/consumer counts) that schedule-space
    generation relies on — Figure 3(c) of the paper. *)

type node_info = {
  tag : string;
  output : string;
  num_spatial : int;  (** #sl *)
  num_reduce : int;  (** #rl *)
  spatial_trip_counts : int list;  (** stc *)
  reduce_trip_counts : int list;  (** rtc *)
  loop_order : string list;  (** order *)
  num_inputs : int;  (** #in *)
  num_outputs : int;  (** #out *)
  num_consumers : int;  (** #cs *)
  flops : int;
}

type graph_info = {
  graph_name : string;
  num_nodes : int;  (** #node *)
  nodes : node_info list;
  total_spatial : int;  (** #sl summed over nodes, as reported in Table 3 *)
  total_reduce : int;  (** #rl of the compute node *)
  total_flops : int;
}

val analyze : Ft_ir.Op.graph -> graph_info

val pp : Format.formatter -> graph_info -> unit
