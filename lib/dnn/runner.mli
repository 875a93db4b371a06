(** End-to-end DNN latency under different operator optimizers
    (§6.6).  The optimizer is any search method of the table, selected
    by its stable name or CLI key ({!Ft_explore.Method.find_exn}) —
    "Q-method" (the paper's FlexTensor runs), "AutoTVM", "CD-method",
    …  Unknown names raise [Invalid_argument]. *)

type layer_time = {
  layer_name : string;
  occurrences : int;
  kernel_s : float;
}

type network_result = {
  network : string;
  optimizer_name : string;
  layer_times : layer_time list;
  total_s : float;
  reused_layers : int;  (** distinct layers satisfied from the tuning log *)
}

(** [run ~network ~target layers optimizer] optimizes each distinct
    layer of the (name, graph) sequence once, fused with bias and ReLU,
    and weighs its kernel time by its occurrences.  Raises
    [Invalid_argument] if one name stands for two structurally
    different graphs — silently keeping the first would mis-tally the
    network latency.  [optimizer_name] brands "Q-method" "FlexTensor"
    (the paper's tables); every other method keeps its own name.
    Only [test_dnn] and [test_store] call it: {!yolo_v1} and
    {!overfeat} cost too much for the tier-1 tests. *)
val run :
  ?seed:int -> ?max_evals:int -> ?store:Ft_store.Store.t ->
  network:string -> target:Ft_schedule.Target.t ->
  (string * Ft_ir.Op.graph) list -> string -> network_result

val yolo_v1 :
  ?seed:int -> ?max_evals:int -> ?store:Ft_store.Store.t ->
  target:Ft_schedule.Target.t -> string -> network_result

val overfeat :
  ?seed:int -> ?max_evals:int -> ?store:Ft_store.Store.t ->
  target:Ft_schedule.Target.t -> string -> network_result
