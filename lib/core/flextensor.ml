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
module Pool = Ft_par.Pool
module Trace = Ft_obs.Trace
module Config_io = Ft_schedule.Config_io
module Store = Ft_store.Store
module Store_record = Ft_store.Record
module Transfer = Ft_store.Transfer
module Method = Ft_explore.Method
module Search_loop = Ft_explore.Search_loop
module Fault = Ft_fault.Plan
module Checkpoint = Ft_store.Checkpoint
module Store_shard = Ft_store.Shard
module Store_protocol = Ft_store.Protocol
module Store_server = Ft_store.Server
module Store_client = Ft_store.Client
module Evaluator = Ft_explore.Evaluator
module Fleet_task = Ft_workloads.Catalog

(* The AutoTVM registrations live in [Ft_baselines.Autotvm]; reference
   the module here so it is linked (and they run) for every consumer of
   this facade. *)
let () = Ft_baselines.Autotvm.ensure_registered ()

type options = {
  seed : int;
  n_trials : int;
  n_starts : int;
  steps : int;
  gamma : float;
  max_evals : int option;
  restarts : int;  (* independent searches; the best result wins *)
  search : string;  (* registered method name or CLI key (Method.find) *)
  flops_scale : float;
  n_parallel : int;  (* simulated measurement devices (clock model) *)
  faults : Ft_fault.Plan.t;  (* injected measurement failures (zero = none) *)
  checkpoint : string option;  (* crash-safe resume trail (JSONL) *)
  resume : bool;  (* continue from the newest matching checkpoint *)
}

let default_options =
  {
    seed = 2020;
    n_trials = 60;
    n_starts = 4;
    steps = 5;
    gamma = 2.0;
    max_evals = None;
    restarts = 1;
    search = "Q-method";
    flops_scale = 1.0;
    n_parallel = 1;
    faults = Ft_fault.Plan.zero;
    checkpoint = None;
    resume = false;
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

let params_of_options options ?dispatch ~transfer seed =
  {
    Search_loop.default_params with
    dispatch;
    seed;
    n_trials = options.n_trials;
    n_starts = options.n_starts;
    steps = options.steps;
    gamma = options.gamma;
    max_evals = options.max_evals;
    transfer_seeds = transfer;
    flops_scale = Some options.flops_scale;
    n_parallel = Some options.n_parallel;
    faults = options.faults;
    checkpoint_path = options.checkpoint;
    resume = options.resume;
  }

let run_one_search (m : Method.t) options ?dispatch ~transfer seed space =
  m.search (params_of_options options ?dispatch ~transfer seed) space

(* Rugged landscapes reward independent restarts; results are merged by
   keeping the best run's schedule, summing the exploration accounting,
   and concatenating the best-so-far timelines on one cumulative clock
   (each restart's samples are offset by the preceding restarts'
   simulated time and eval counts, with the best-value curve made
   monotone across the joins) — so [time_to_reach] on a merged result
   compares like against like. *)
let run_search (m : Method.t) options ?dispatch ~transfer space =
  let restarts = max 1 options.restarts in
  let runs =
    List.init restarts (fun i ->
        run_one_search m options ?dispatch ~transfer (options.seed + (i * 57))
          space)
  in
  match runs with
  | [] -> assert false
  | first :: rest ->
      let best =
        List.fold_left
          (fun (acc : Driver.result) (run : Driver.result) ->
            if run.best_value > acc.best_value then run else acc)
          first rest
      in
      let history =
        let _, _, _, rev_samples =
          List.fold_left
            (fun (t0, e0, running_best, acc) (r : Driver.result) ->
              let running_best, acc =
                List.fold_left
                  (fun (rb, acc) (s : Driver.sample) ->
                    let rb = Float.max rb s.best_value in
                    ( rb,
                      {
                        Driver.at_s = s.at_s +. t0;
                        n_evals = s.n_evals + e0;
                        best_value = rb;
                      }
                      :: acc ))
                  (running_best, acc) r.history
              in
              (t0 +. r.sim_time_s, e0 + r.n_evals, running_best, acc))
            (0., 0, Float.neg_infinity, [])
            runs
        in
        List.rev rev_samples
      in
      {
        best with
        history;
        n_evals = List.fold_left (fun acc (r : Driver.result) -> acc + r.n_evals) 0 runs;
        sim_time_s =
          List.fold_left (fun acc (r : Driver.result) -> acc +. r.sim_time_s) 0. runs;
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

(* The repository — local log and/or remote daemon — is consulted
   before, and written after, the search: never during it, and never
   through the evaluator or the search RNG.  An exact hit reapplies
   the logged schedule through the cost model directly (zero fresh
   measurements, identical value by determinism); a near hit
   warm-starts the search by appending refitted schedules after the
   regular seed points, leaving the RNG draw sequence — and hence a
   cold search's trajectory — untouched.  A remote failure (dead
   daemon, transport error) degrades into a miss: reuse may fall back
   to a cold search, it never fails one. *)
let optimize ?(options = default_options) ?store ?remote ?(reuse = false)
    ?dispatch ?measurer graph target =
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
  let key = Store_record.key_of_space space in
  (* The remote repository wins ties: it is the shared, most complete
     view.  The local log remains the fallback when no daemon is
     configured (and the cold path when neither is). *)
  let remote_exact () =
    match remote with
    | None -> None
    | Some client -> (
        match Store_client.best_exact ~method_name client key with
        | Ok hit -> hit
        | Error _ -> None)
  in
  let local_exact () =
    match store with
    | None -> None
    | Some s -> Store.best_exact ~method_name s key
  in
  let exact_hit =
    if not reuse then None
    else
      let record =
        match remote_exact () with Some r -> Some r | None -> local_exact ()
      in
      match record with
      | None -> None
      | Some record -> (
          match Config_io.of_string_for space record.Store_record.config with
          | Ok cfg -> Some cfg
          | Error _ -> None)
  in
  match exact_hit with
  | Some cfg ->
      let perf = Ft_hw.Cost.evaluate ~flops_scale:options.flops_scale space cfg in
      make_report ?measured:(measure cfg perf) graph target space
        ~provenance:Reused ~config:cfg ~perf
        ~perf_value:(Ft_hw.Cost.perf_value space perf) ~n_evals:0 ~sim_time_s:0.
        ~history:[]
  | None ->
      let transfer =
        if not reuse then []
        else
          match remote with
          | Some client -> (
              (* the cache-miss path: nearest-shape records refitted by
                 Transfer, fetched from the shared repository *)
              match Store_client.nearest ~method_name client key with
              | Ok near -> Transfer.seeds_of_records ~exact:None ~near space
              | Error _ -> (
                  match store with
                  | Some s -> Transfer.seeds ~method_name s space
                  | None -> []))
          | None -> (
              match store with
              | Some s -> Transfer.seeds ~method_name s space
              | None -> [])
      in
      let result = run_search m options ?dispatch ~transfer space in
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
      (match store with Some s -> Store.add s record | None -> ());
      (match remote with
      | Some client -> (
          match Store_client.append client record with
          | Ok () | Error _ -> ())
      | None -> ());
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
let reapply ?(flops_scale = 1.0) graph target config_text =
  let graph = Op.validate_exn graph in
  let space = Space.make graph target in
  match Config_io.of_string_for space config_text with
  | Error msg -> Error msg
  | Ok cfg ->
      let perf = Ft_hw.Cost.evaluate ~flops_scale space cfg in
      (* Never hand back an invalid schedule as a replayed result: a
         log whose best was itself invalid (e.g. an all-quarantined
         faulty run) must fail loudly, not "succeed" at value 0. *)
      if not perf.Perf.valid then
        Error
          (Printf.sprintf "schedule is invalid for this space: %s"
             perf.Perf.note)
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
let verify ?seed ?tol report = Verify.check ?seed ?tol report.space report.config

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
