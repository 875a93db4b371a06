(* The public face of the framework: describe a tensor computation
   mathematically (Operators / Op), pick a hardware target, call
   [optimize].  No schedule or template is ever written by the user —
   the front-end generates the space from static analysis and the
   back-end explores it (§3). *)

module Expr = Ft_ir.Expr
module Op = Ft_ir.Op
module Operators = Ft_ir.Operators
module Static_analyzer = Ft_analysis.Static_analyzer
module Target = Ft_schedule.Target
module Space = Ft_schedule.Space
module Config = Ft_schedule.Config
module Primitive = Ft_schedule.Primitive
module Neighborhood = Ft_schedule.Neighborhood
module Perf = Ft_hw.Perf
module Lowering = Ft_lower.Lowering
module Pretty = Ft_lower.Pretty
module Verify = Ft_lower.Verify
module Compile = Ft_lower.Compile
module Measure = Ft_lower.Measure
module Monotime = Ft_util.Monotime
module Sandbox = Ft_lower.Sandbox
module Driver = Ft_explore.Driver
module Trace = Ft_obs.Trace
module Config_io = Ft_schedule.Config_io
module Store = Ft_store.Store
module Store_record = Ft_store.Record
module Transfer = Ft_store.Transfer
module Method = Ft_explore.Method
module Search_loop = Ft_explore.Search_loop
module Fault = Ft_fault.Plan
module Checkpoint = Ft_store.Checkpoint
module Evaluator = Ft_explore.Evaluator
module Fleet_task = Ft_workloads.Catalog

module Pool = struct
  type t = unit

  let set_default_jobs jobs =
    if jobs < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1"

  let default () = ()
  let lanes () = 1
  let map () f xs = List.map f xs
  let quiesce_default () = ()
end

type options = {
  seed : int;
  n_trials : int;
  search : string;  (* method name or CLI key (Method.find) *)
  max_evals : int option;
  n_parallel : int;  (* simulated measurement devices (clock model) *)
  faults : Ft_fault.Plan.t;  (* injected measurement failures (zero = none) *)
  checkpoint : string option;  (* crash-safe resume trail (JSONL) *)
  resume : bool;  (* continue from the newest matching checkpoint *)
}

(* The search defaults are [Search_loop.default_params]'s; the facade
   adds only the method choice. *)
let default_options =
  let p = Search_loop.default_params in
  {
    seed = p.seed;
    n_trials = p.n_trials;
    search = "Q-method";
    max_evals = p.max_evals;
    n_parallel = p.n_parallel;
    faults = p.faults;
    checkpoint = p.checkpoint_path;
    resume = p.resume;
  }

(* How the reported schedule was obtained: a cold search, a search
   warm-started with schedules transferred from a tuning log, or a
   logged schedule reapplied outright (no search, no measurement). *)
type provenance = Searched | Transferred of int | Reused

type report = {
  graph : Op.graph;
  target : Target.t;
  space : Space.t;
  space_size : float;
  analysis : Static_analyzer.graph_info;
  config : Config.t;
  primitives : Primitive.t list;
  perf : Perf.t;
  perf_value : float;
  measured : Perf.t option;
      (* host measurement of [config] ([Perf.Measured] provenance);
         never compared against [perf_value], which stays analytical *)
  n_evals : int;
  sim_time_s : float;
  history : Driver.sample list;
  provenance : provenance;
}

let params_of_options options ~dispatch ~transfer =
  {
    Search_loop.default_params with
    seed = options.seed;
    n_trials = options.n_trials;
    max_evals = options.max_evals;
    transfer_seeds = transfer;
    n_parallel = options.n_parallel;
    dispatch;
    faults = options.faults;
    checkpoint_path = options.checkpoint;
    resume = options.resume;
  }

let make_report ?measured graph target space ~provenance ~config ~perf
    ~perf_value ~n_evals ~sim_time_s ~history =
  {
    graph;
    target;
    space;
    space_size = Space.size space;
    analysis = Static_analyzer.analyze graph;
    config;
    primitives = Primitive.of_config space config;
    perf;
    perf_value;
    measured;
    n_evals;
    sim_time_s;
    history;
    provenance;
  }

let record_of_result space method_name seed (result : Driver.result) =
  {
    Store_record.key = Store_record.key_of_space space;
    method_name;
    seed;
    best_value = result.best_value;
    sim_time_s = result.sim_time_s;
    n_evals = result.n_evals;
    config = Config_io.to_string result.best_config;
    source = Ft_hw.Perf.provenance_to_string result.best_perf.Ft_hw.Perf.source;
  }

(* The tuning log is consulted before, and written after, the search:
   never during it, and never through the evaluator or the search RNG.
   An exact hit reapplies the logged schedule through the cost model
   directly (zero fresh measurements, identical value by determinism);
   a near hit warm-starts the search by appending refitted schedules
   after the regular seed points, leaving the RNG draw sequence — and
   hence a cold search's trajectory — untouched. *)
let optimize ?(options = default_options) ?store ?(reuse = false) ?dispatch
    ?measurer graph target =
  let graph = Op.validate_exn graph in
  let space = Space.make graph target in
  (* Measurement happens strictly after the winner is known — on every
     path, including reuse hits — and only for valid schedules, so the
     search itself is untouched by [measurer]. *)
  let measure cfg (perf : Perf.t) =
    match measurer with
    | Some f when perf.Perf.valid -> Some (f cfg)
    | _ -> None
  in
  let m = Method.find_exn options.search in
  let method_name = m.Method.name in
  let reuse_store = if reuse then store else None in
  let exact_hit =
    Option.bind reuse_store (fun s ->
        Option.bind
          (Store.best_exact ~method_name s (Store_record.key_of_space space))
          (fun record ->
            Result.to_option
              (Config_io.of_string_for space record.Store_record.config)))
  in
  match exact_hit with
  | Some cfg ->
      let perf = Ft_hw.Cost.evaluate space cfg in
      make_report ?measured:(measure cfg perf) graph target space
        ~provenance:Reused ~config:cfg ~perf
        ~perf_value:(Ft_hw.Cost.perf_value space perf) ~n_evals:0 ~sim_time_s:0.
        ~history:[]
  | None ->
      let transfer =
        match reuse_store with
        | Some s -> Transfer.seeds ~method_name s space
        | None -> []
      in
      let result = m.search (params_of_options options ~dispatch ~transfer) space in
      let measured = measure result.best_config result.best_perf in
      let record = record_of_result space method_name options.seed result in
      (* [best_value] is always the analytical search objective (replay
         must reproduce it exactly); a measurement only annotates the
         record's provenance. *)
      let record =
        match measured with
        | Some (m : Perf.t) when m.Perf.valid ->
            {
              record with
              Store_record.source = Ft_hw.Perf.provenance_to_string m.Perf.source;
            }
        | _ -> record
      in
      (* A run with no valid schedule (every candidate quarantined) is
         not logged: a later --reuse would reapply its unmeasured
         incumbent as an exact hit. *)
      if Driver.succeeded result then Option.iter (fun s -> Store.add s record) store;
      let provenance =
        match transfer with
        | [] -> Searched
        | seeds -> Transferred (List.length seeds)
      in
      make_report ?measured graph target space ~provenance
        ~config:result.best_config ~perf:result.best_perf
        ~perf_value:result.best_value ~n_evals:result.n_evals
        ~sim_time_s:result.sim_time_s ~history:result.history

(* Reapply a serialized schedule without searching or measuring:
   validate it against the freshly built space and query the cost
   model.  Used by [schedule replay] to re-check tuning-log entries. *)
let reapply graph target config_text =
  let graph = Op.validate_exn graph in
  let space = Space.make graph target in
  match Config_io.of_string_for space config_text with
  | Error msg -> Error msg
  | Ok cfg ->
      let perf = Ft_hw.Cost.evaluate space cfg in
      (* Never hand back an invalid schedule as a replayed result: a
         log whose best was itself invalid (e.g. an all-quarantined
         faulty run) must fail loudly, not "succeed" at value 0. *)
      if not perf.Perf.valid then
        Error
          (Printf.sprintf "schedule is invalid for this space: %s"
             (Perf.note perf))
      else
        Ok
          (make_report graph target space ~provenance:Reused ~config:cfg ~perf
             ~perf_value:(Ft_hw.Cost.perf_value space perf) ~n_evals:0
             ~sim_time_s:0. ~history:[])

(* Lowered pseudo-code of the optimized schedule. *)
let generated_code report =
  Pretty.render (Lowering.lower report.space report.config)

(* Check the optimized schedule end-to-end against the naive reference.
   Execution is point-by-point, so use this on small graphs. *)
let verify report = Verify.check report.space report.config

let report_summary report =
  let measured_suffix =
    match report.measured with
    | Some m when m.Perf.valid ->
        Format.asprintf "\nmeasured: %a vs %.1f GFLOPS predicted" Perf.pp m
          report.perf.Perf.gflops
    | Some m -> Format.asprintf "\nmeasured: %a" Perf.pp m
    | None -> ""
  in
  Format.asprintf
    "%s on %s: %a (space %.2e, %d evaluations, %.0f simulated seconds)%s"
    report.graph.Op.graph_name (Target.name report.target) Perf.pp report.perf
    report.space_size report.n_evals report.sim_time_s measured_suffix
