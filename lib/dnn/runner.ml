(* End-to-end DNN optimization (§6.6): partition the network into
   convolution sub-graphs with fused element-wise epilogues, optimize
   each distinct layer once with the chosen method, and sum per-layer
   latencies over the full layer sequence.

   The optimizer is any search method of [Ft_explore.Method], selected
   by name; "Q-method" is displayed as "FlexTensor" in network results,
   matching the paper's tables. *)

type layer_time = {
  layer_name : string;
  occurrences : int;
  kernel_s : float;  (* one execution of the optimized kernel *)
}

type network_result = {
  network : string;
  optimizer_name : string;
  layer_times : layer_time list;
  total_s : float;
  reused_layers : int;
}

(* The paper brands the Q-method end-to-end runs "FlexTensor". *)
let optimizer_name optimizer =
  match (Ft_explore.Method.find_exn optimizer).name with
  | "Q-method" -> "FlexTensor"
  | name -> name

(* Optimize one layer, consulting the tuning log first when one is
   given: an exact hit for the same method reapplies the logged
   schedule through the cost model (the search clock never starts); a
   miss searches and appends the result.  Returns the kernel time and
   whether the schedule came from the log.  Store records are keyed
   per search method, so AutoTVM runs never pick up FlexTensor
   schedules (and vice versa). *)
let optimize_layer ?(seed = 2020) ?(max_evals = 250) ?store optimizer target
    graph =
  let m = Ft_explore.Method.find_exn optimizer in
  let space = Ft_schedule.Space.make graph target in
  let key = Ft_store.Record.key_of_space space in
  let method_name = m.Ft_explore.Method.name in
  let logged =
    match store with
    | None -> None
    | Some store -> (
        match Ft_store.Store.best_exact ~method_name store key with
        | None -> None
        | Some record -> (
            match Ft_schedule.Config_io.of_string_for space record.config with
            | Ok cfg -> Some cfg
            | Error _ -> None))
  in
  match logged with
  | Some cfg ->
      let perf = Ft_hw.Cost.evaluate space cfg in
      (perf.Ft_hw.Perf.time_s, true)
  | None ->
      let result =
        m.Ft_explore.Method.search
          {
            Ft_explore.Search_loop.default_params with
            seed;
            n_trials = 1000;
            max_evals = Some max_evals;
          }
          space
      in
      Option.iter
        (fun store ->
          Ft_store.Store.add store
            {
              Ft_store.Record.key;
              method_name;
              seed;
              best_value = result.Ft_explore.Driver.best_value;
              sim_time_s = result.sim_time_s;
              n_evals = result.n_evals;
              config = Ft_schedule.Config_io.to_string result.best_config;
              source =
                Ft_hw.Perf.provenance_to_string
                  result.best_perf.Ft_hw.Perf.source;
            })
        store;
      (result.best_perf.Ft_hw.Perf.time_s, false)

(* Layers are deduplicated by name, but a name may only ever stand for
   one graph: a collision between two structurally different graphs
   means the layer table itself is wrong, and silently keeping the
   first graph would mis-tally the network latency. *)
let graph_signature (graph : Ft_ir.Op.graph) =
  Format.asprintf "%a" Ft_ir.Op.pp_graph graph

let count_occurrences layers =
  let tally = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (name, graph) ->
      match Hashtbl.find_opt tally name with
      | Some (first, signature, n) ->
          if not (String.equal signature (graph_signature graph)) then
            invalid_arg
              (Printf.sprintf
                 "Runner.count_occurrences: layer name %S stands for two \
                  different graphs"
                 name);
          Hashtbl.replace tally name (first, signature, n + 1)
      | None ->
          Hashtbl.add tally name (graph, graph_signature graph, 1);
          order := name :: !order)
    layers;
  List.rev_map
    (fun name ->
      let graph, _, n = Hashtbl.find tally name in
      (name, graph, n))
    !order

(* [layers] are (name, conv graph) in network order; identical layers
   are optimized once (YOLO-v1 repeats C7/C8 four times). *)
let run ?(seed = 2020) ?(max_evals = 250) ?store ~network ~target layers
    optimizer =
  let reused_layers = ref 0 in
  let layer_times =
    List.map
      (fun (layer_name, graph, occurrences) ->
        let kernel_s, reused =
          optimize_layer ~seed ~max_evals ?store optimizer target
            (Fusion.with_bias_relu graph)
        in
        if reused then incr reused_layers;
        { layer_name; occurrences; kernel_s })
      (count_occurrences layers)
  in
  let total_s =
    List.fold_left
      (fun acc t -> acc +. (float_of_int t.occurrences *. t.kernel_s))
      0. layer_times
  in
  { network; optimizer_name = optimizer_name optimizer; layer_times; total_s;
    reused_layers = !reused_layers }

let yolo_v1 ?seed ?max_evals ?store ~target optimizer =
  let layers =
    List.map
      (fun layer -> (layer.Ft_workloads.Yolo.name, Ft_workloads.Yolo.graph layer))
      Ft_workloads.Yolo.full_network
  in
  run ?seed ?max_evals ?store ~network:"YOLO-v1" ~target layers optimizer

let overfeat ?seed ?max_evals ?store ~target optimizer =
  let layers =
    List.map
      (fun layer ->
        (layer.Ft_workloads.Overfeat.name, Ft_workloads.Overfeat.graph layer))
      Ft_workloads.Overfeat.layers
  in
  run ?seed ?max_evals ?store ~network:"OverFeat" ~target layers optimizer
