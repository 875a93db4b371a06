(* The workload process: `ftbench workload W --input FILE ...`.

   It sets up (pool, input, tuning log), then serves the workload's job
   stream as a closed loop — one client, the next tuning job starts when
   the previous returns — for whole cycles: the workload's quality
   cycles, then more until the time box is spent.
   With a trace path it then enables tracing and replays exactly the
   same jobs, so the traced pass can be compared job for job with the
   untraced one.  Everything goes through the public API; the only
   hooks are the ones [Flextensor.optimize] takes. *)

module Trace = Ft_obs.Trace
module Pool = Flextensor.Pool
module Monotime = Flextensor.Monotime
module Store = Flextensor.Store

type input = {
  seed : int;
  seconds : float;
  smoke : bool;
  log : string option;  (* tuning log loaded at set-up *)
  traced_log : string option;  (* an identical copy for the traced pass *)
  trace : string option;  (* JSONL path: run the traced pass *)
}

type result = {
  wall_s : float;  (* the optimize call, including its measurer *)
  n_evals : int;
  perf_value : float;
  config : string;
  provenance : string;
  measure_s : float;  (* the measurer call; 0 without one *)
  measured_gflops : float option;  (* a valid sandboxed measurement *)
  error : string option;
  host_factor : float;  (* Calibrate.factor around the job *)
}

type pass = { tune_s : float; cycles : int; results : result list }

type output = {
  setup_s : float;
  setup_factor : float;  (* Calibrate.factor right after set-up *)
  peak_rss_mb : float;
  jobs : Spec.job list;  (* what each pass ran, in order *)
  passes : pass list;
}

(* A time measured in a job, at reference host speed (see Calibrate). *)
let at_ref r seconds = seconds /. r.host_factor

(* A pass's total job time at reference host speed. *)
let busy_s pass = List.fold_left (fun acc r -> acc +. at_ref r r.wall_s) 0. pass.results

(* `ftbench run` and the workload process are the same executable, so
   they exchange these records with Marshal. *)
let save path (v : 'a) = Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc v [])
let load path : 'a = In_channel.with_open_bin path Marshal.from_channel

(* -- Jobs --------------------------------------------------------------- *)

(* The traced pass's evaluation backend: the same pure cost-model query
   on the same default pool the evaluator would use, inside a
   [bench.cost_model] span, with every task timed.  A dispatch must be
   bit-for-bit the in-process computation, which this is. *)
let cost_dispatch space : Flextensor.Evaluator.dispatch =
 fun keyed ->
  let n = List.length keyed in
  Trace.with_span "bench.cost_model" ~fields:[ ("n", Trace.Int n) ] (fun () ->
      let pool = Pool.default () in
      let timed =
        Pool.map pool
          (fun (cfg, _) ->
            let t0 = Monotime.now_s () in
            let perf = Ft_hw.Cost.evaluate space cfg in
            ((Ft_hw.Cost.perf_value space perf, perf), Monotime.elapsed_s t0))
          keyed
      in
      let busy_ns =
        int_of_float (1e9 *. List.fold_left (fun acc (_, dt) -> acc +. dt) 0. timed)
      in
      Trace.incr ~by:n "bench.cost_calls";
      (* Pool.map runs a singleton inline, without a parallel region. *)
      if n > 1 && Pool.lanes pool > 1 then Trace.incr ~by:busy_ns "bench.pool_busy_ns";
      List.map fst timed)

let provenance_name = function
  | Flextensor.Searched -> "searched"
  | Flextensor.Transferred _ -> "transferred"
  | Flextensor.Reused -> "reused"

let run_job (w : Spec.t) ~store ~traced (job : Spec.job) =
  let graph = Spec.graph job.graph and target = Spec.target job.target in
  let space = lazy (Flextensor.Space.make graph target) in
  let options =
    {
      Flextensor.default_options with
      seed = job.seed;
      search = w.search;
      n_trials = 1_000_000;  (* max_evals ends every search *)
      max_evals = Some w.max_evals;
    }
  in
  let measure_s = ref 0. in
  let measurer =
    if not w.measured then None
    else
      Some
        (fun cfg ->
          let space = Lazy.force space in
          let t0 = Monotime.now_s () in
          let perf =
            Trace.with_span "bench.measure" (fun () -> Flextensor.Sandbox.measurer space cfg)
          in
          measure_s := Monotime.elapsed_s t0;
          perf)
  in
  let dispatch = if traced then Some (cost_dispatch (Lazy.force space)) else None in
  let t0 = Monotime.now_s () in
  match
    Trace.with_span "bench.job" (fun () ->
        Flextensor.optimize ~options ?store ~reuse:(Option.is_some store) ?dispatch ?measurer
          graph target)
  with
  | report ->
      {
        wall_s = Monotime.elapsed_s t0;
        n_evals = report.n_evals;
        perf_value = report.perf_value;
        config = Flextensor.Config_io.to_string report.config;
        provenance = provenance_name report.provenance;
        measure_s = !measure_s;
        measured_gflops =
          (match report.measured with
          | Some p when p.Flextensor.Perf.valid -> Some p.Flextensor.Perf.gflops
          | _ -> None);
        error = None;
        host_factor = 1.;
      }
  | exception e ->
      {
        wall_s = Monotime.elapsed_s t0;
        n_evals = 0;
        perf_value = 0.;
        config = "";
        provenance = "";
        measure_s = !measure_s;
        measured_gflops = None;
        error = Some (Printexc.to_string e);
        host_factor = 1.;
      }

(* Jobs run back to back under a meter, which times the calibration
   kernel before the first job, after the last and between jobs every
   quarter second; each result gets the host factor of the interval it
   ran in. *)
type meter = {
  mutable kernel_s : float list;  (* newest first *)
  mutable interval : int;
  mutable since : float;
  mutable done_ : (result * int) list;
}

let meter () =
  { kernel_s = [ Calibrate.time () ]; interval = 0; since = Monotime.now_s (); done_ = [] }

let metered m run job =
  let r = run job in
  m.done_ <- (r, m.interval) :: m.done_;
  if Monotime.elapsed_s m.since >= 0.25 then begin
    m.kernel_s <- Calibrate.time () :: m.kernel_s;
    m.interval <- m.interval + 1;
    m.since <- Monotime.now_s ()
  end

let finish m =
  let k = Array.of_list (List.rev (Calibrate.time () :: m.kernel_s)) in
  List.rev_map
    (fun (r, i) ->
      let host_factor = Calibrate.factor ~before:k.(i) ~after:k.(i + 1) in
      { r with host_factor })
    m.done_

(* Whole cycles, closed loop: at least [min_cycles], then more until the
   next cycle would overrun the time box. *)
let timed_pass ~seconds ~min_cycles next run =
  let t0 = Monotime.now_s () in
  let m = meter () in
  let rec loop jobs cycles =
    let cycle = next () in
    List.iter (metered m run) cycle;
    let jobs = List.rev_append cycle jobs and cycles = cycles + 1 in
    let elapsed = Monotime.elapsed_s t0 in
    if cycles < min_cycles || elapsed +. (elapsed /. float_of_int cycles) <= seconds then
      loop jobs cycles
    else (List.rev jobs, { tune_s = elapsed; cycles; results = finish m })
  in
  loop [] 0

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      scan ())

let main (w : Spec.t) ~input ~output ~spawned_at ~setup_only =
  let (input : input) = load input in
  Pool.set_default_jobs w.lanes;
  ignore (Pool.default ());
  let store = Option.map Store.load input.log in
  let setup_s = Monotime.now_s () -. spawned_at in
  let setup_factor =
    let k = Calibrate.time () in
    Calibrate.factor ~before:k ~after:k
  in
  let jobs, passes, peak_rss_mb =
    if setup_only then ([], [], 0.)
    else begin
      let next = w.stream ~seed:input.seed ~smoke:input.smoke in
      let jobs, untraced =
        timed_pass ~seconds:input.seconds
          ~min_cycles:(if input.smoke then 1 else w.quality_cycles)
          next (run_job w ~store ~traced:false)
      in
      let peak_rss_mb = peak_rss_mb () in
      let traced =
        match input.trace with
        | None -> []
        | Some path ->
            let sink, closing = Trace_file.sink path in
            Trace.enable sink;
            let store =
              Option.map
                (fun log -> Trace.with_span "bench.store_load" (fun () -> Store.load log))
                input.traced_log
            in
            let t0 = Monotime.now_s () in
            let m = meter () in
            List.iter (metered m (run_job w ~store ~traced:true)) jobs;
            let results = finish m in
            let pass = { tune_s = Monotime.elapsed_s t0; cycles = untraced.cycles; results } in
            closing ();
            Trace.close ();
            [ pass ]
      in
      (jobs, untraced :: traced, peak_rss_mb)
    end
  in
  Pool.quiesce_default ();
  save output { setup_s; setup_factor; peak_rss_mb; jobs; passes }
