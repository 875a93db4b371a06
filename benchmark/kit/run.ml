(* `ftbench run`: generate each workload's inputs from the seed, run it
   in fresh workload processes, check the outputs, print the metrics.

   Per workload: one process that sets up and serves the job stream,
   with processes that only set up and exit before and after it, so
   that the set-up times sample the host over the whole run; setup_s is
   the median of all their set-up times.  A fresh process per workload
   keeps setup_s and peak_rss_mb to that workload alone, and lets the
   measure workload fork its sandbox from a process that never started
   a second domain. *)

module Monotime = Flextensor.Monotime
module Record = Flextensor.Store_record

type options = {
  workloads : Spec.t list;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
}

(* Everything a run writes stays under the working directory. *)
let work_root = ".ftbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_lines path lines =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

(* -- Workload processes ------------------------------------------------- *)

(* Spawn `ftbench workload ...` and wait for it, killing it past
   [deadline_s]; its stdout goes to our stderr so that the result line
   stays last on ours. *)
let run_child ~deadline_s ~input ~output ~setup_only (w : Spec.t) =
  let exe = Sys.executable_name in
  let spawned_at = Monotime.now_s () in
  let args =
    [ exe; "workload"; w.name; "--input"; input; "--output"; output;
      "--spawned-at"; Printf.sprintf "%.9f" spawned_at ]
    @ if setup_only then [ "--setup-only" ] else []
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Monotime.elapsed_s spawned_at > deadline_s ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Error (Printf.sprintf "killed after %.0f s" deadline_s)
    | 0, _ ->
        Unix.sleepf 0.01;
        wait ()
    | _, Unix.WEXITED 0 -> (
        match (Child.load output : Child.output) with
        | out -> Ok out
        | exception e -> Error ("unreadable output: " ^ Printexc.to_string e))
    | _, Unix.WEXITED n -> Error (Printf.sprintf "exited with %d" n)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> Error (Printf.sprintf "killed by signal %d" n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* -- Correctness -------------------------------------------------------- *)

let bits = Int64.bits_of_float

(* Checks run after the workload process exits, outside every timed
   region.  Returns one reason per failed job (a job fails once). *)
let check (w : Spec.t) ~log_best jobs (pass : Child.pass) =
  let reapplied = Hashtbl.create 64 in
  let reapply (job : Spec.job) config =
    let key = (job.graph, job.target, config) in
    match Hashtbl.find_opt reapplied key with
    | Some r -> r
    | None ->
        let r =
          Flextensor.reapply (Spec.graph job.graph) (Spec.target job.target) config
        in
        Hashtbl.add reapplied key r;
        r
  in
  let verified = Hashtbl.create 4 in
  let failure (job : Spec.job) (r : Child.result) =
    let graph = Spec.describe job.graph in
    match r.error with
    | Some e -> Some (graph ^ " raised " ^ e)
    | None when not (Float.is_finite r.perf_value && r.perf_value > 0.) ->
        Some (graph ^ ": invalid winner")
    | None when (job.kind = Spec.Hit) <> (r.provenance = "reused") ->
        Some (Printf.sprintf "%s: a %s request was served as %s" graph
                (if job.kind = Spec.Hit then "hit" else "miss") r.provenance)
    | None -> (
        match reapply job r.config with
        | Error e -> Some (graph ^ ": reapply failed: " ^ e)
        | Ok report when bits report.perf_value <> bits r.perf_value ->
            Some (Printf.sprintf "%s: reapplied %.17g, searched %.17g" graph report.perf_value
                    r.perf_value)
        | Ok report -> (
            let logged =
              if job.kind = Spec.Hit then
                Hashtbl.find_opt log_best (Record.key_of_space report.space)
              else None
            in
            match logged with
            | Some v when bits v <> bits r.perf_value ->
                Some (Printf.sprintf "%s: hit %.17g, logged best %.17g" graph r.perf_value v)
            | _ when w.measured && r.measured_gflops = None -> Some (graph ^ ": sandbox fault")
            | _ -> (
                (* Point-by-point verification is slow: only the first
                   winner on each operator's smallest shape. *)
                match job.graph with
                | Spec.Small i
                  when List.mem i Spec.verified_shapes && not (Hashtbl.mem verified i) -> (
                    Hashtbl.add verified i ();
                    match Flextensor.verify report with
                    | Ok () -> None
                    | Error e -> Some (graph ^ ": verify failed: " ^ e))
                | _ -> None)))
  in
  List.filter_map Fun.id (List.map2 failure jobs pass.results)

(* The traced pass must pick bit-for-bit the untraced pass's winners:
   the bench hooks may not change results. *)
let compare_passes jobs (untraced : Child.pass) (traced : Child.pass) =
  List.filter_map Fun.id
    (List.map2
       (fun (job : Spec.job) ((a : Child.result), (b : Child.result)) ->
         if a.config = b.config && bits a.perf_value = bits b.perf_value
            && a.n_evals = b.n_evals && b.error = None
         then None
         else Some (Spec.describe job.graph ^ ": traced winner differs"))
       jobs
       (List.combine untraced.results traced.results))

(* -- Metrics ------------------------------------------------------------ *)

(* Results of the jobs that searched (not exact hits) and returned. *)
let searched pairs =
  List.filter_map
    (fun ((j : Spec.job), (r : Child.result)) ->
      if j.kind <> Spec.Hit && r.error = None then Some r else None)
    pairs

let at_ref = Child.at_ref
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

(* Search quality is taken over the first [w.quality_cycles] cycles,
   which every run measures whatever the host's or the code's speed:
   the metric is then a pure function of the seed. *)
let end_to_end (w : Spec.t) ~setups ~peak_rss_mb jobs (pass : Child.pass) =
  let pairs = List.combine jobs pass.results in
  let runs = searched pairs in
  let search_s = sum (fun (r : Child.result) -> at_ref r (r.wall_s -. r.measure_s)) runs in
  let evals = List.fold_left (fun acc (r : Child.result) -> acc + r.n_evals) 0 runs in
  let per_cycle = List.length pass.results / pass.cycles in
  let winners =
    List.filter_map
      (fun (r : Child.result) ->
        if Float.is_finite r.perf_value && r.perf_value > 0. then Some r.perf_value else None)
      (searched (List.filteri (fun i _ -> i < w.quality_cycles * per_cycle) pairs))
  in
  [
    ("setup_s", Summary.median setups);
    ("jobs_per_s", float_of_int (List.length pass.results) /. Child.busy_s pass);
    ("job_ms_p50", 1e3 *. Summary.(or_zero median) (List.map (fun r -> at_ref r r.wall_s) runs));
    ("evals_per_s", float_of_int evals /. search_s);
    ("winner_gflops_geomean", Summary.or_zero Ft_util.Stats.geomean winners);
    ("peak_rss_mb", peak_rss_mb);
  ]

(* Tails and workload-specific series of the untraced pass: 0 when the
   workload has no such series or too few samples for the tail. *)
let series (w : Spec.t) jobs (pass : Child.pass) =
  let pairs = List.combine jobs pass.results in
  let p50 scale xs = scale *. Summary.(or_zero median) xs in
  let p90 scale xs = Option.fold ~none:0. ~some:(( *. ) scale) (Summary.tail ~pct:90 xs) in
  let job_s = List.map (fun (r : Child.result) -> at_ref r r.wall_s) (searched pairs) in
  let measure_s =
    if w.measured then List.map (fun (_, (r : Child.result)) -> at_ref r r.measure_s) pairs
    else []
  in
  let hit_s =
    List.filter_map
      (fun ((j : Spec.job), (r : Child.result)) ->
        if j.kind = Spec.Hit then Some (at_ref r r.wall_s) else None)
      pairs
  in
  let kernels = List.filter_map (fun (_, (r : Child.result)) -> r.measured_gflops) pairs in
  [
    ("job_ms_p90", p90 1e3 job_s);
    ("measure_ms_p50", p50 1e3 measure_s);
    ("measure_ms_p90", p90 1e3 measure_s);
    ("kernel_gflops_geomean", Summary.or_zero Ft_util.Stats.geomean kernels);
    ("hit_us_p50", p50 1e6 hit_s);
    ("hit_us_p90", p90 1e6 hit_s);
  ]

let print_metrics values =
  List.iter
    (fun (name, value) ->
      Printf.printf "  %-24s %14.6g %s\n" name value (Metrics.unit_of name))
    values

let print_spans fold =
  Printf.printf "  %-22s %8s %10s %10s\n" "span" "calls" "total_s" "self_s";
  List.iter
    (fun (r : Trace_file.row) ->
      Printf.printf "  %-22s %8d %10.4f %10.4f\n" r.name r.calls r.total_s r.self_s)
    (Trace_file.rows fold)

(* -- One workload ------------------------------------------------------- *)

let run_workload opts (w : Spec.t) =
  let dir = Filename.concat work_root w.name in
  mkdir_p dir;
  let path name = Filename.concat dir name in
  let log = if w.reuse then Spec.log ~seed:opts.seed ~smoke:opts.smoke else [] in
  let log_best = Hashtbl.create 1024 in
  List.iter
    (fun (r : Record.t) ->
      match Hashtbl.find_opt log_best r.key with
      | Some v when v >= r.best_value -> ()
      | _ -> Hashtbl.replace log_best r.key r.best_value)
    log;
  let logs =
    if not w.reuse then (None, None)
    else begin
      let lines = List.map Record.to_json log in
      write_lines (path "log.jsonl") lines;
      if opts.trace then write_lines (path "traced_log.jsonl") lines;
      (Some (path "log.jsonl"), if opts.trace then Some (path "traced_log.jsonl") else None)
    end
  in
  let trace_path = Filename.concat work_root (w.name ^ ".trace.jsonl") in
  let input = path "input" and output = path "output" in
  Child.save input
    { Child.seed = opts.seed; seconds = opts.seconds; smoke = opts.smoke;
      log = fst logs; traced_log = snd logs;
      trace = (if opts.trace then Some trace_path else None) };
  let deadline_s = Float.min 150. (30. +. (5. *. opts.seconds)) in
  let setup_only () =
    List.init (if opts.smoke then 1 else 5) (fun _ ->
        run_child ~deadline_s ~input ~output ~setup_only:true w)
  in
  let before = setup_only () in
  let main = run_child ~deadline_s ~input ~output ~setup_only:false w in
  let runs = before @ (main :: setup_only ()) in
  let cleanup () =
    Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  match List.find_map (function Error e -> Some e | Ok _ -> None) runs with
  | Some e ->
      cleanup ();
      Printf.eprintf "ftbench: %s: workload process %s\n%!" w.name e;
      false
  | None ->
      let out = Result.get_ok main in
      let setups =
        List.map
          (fun r ->
            let (o : Child.output) = Result.get_ok r in
            o.setup_s /. o.setup_factor)
          runs
      in
      let untraced = List.hd out.passes and jobs = out.jobs in
      let failures = check w ~log_best jobs untraced in
      let traced = match out.passes with [ _; t ] -> Some t | _ -> None in
      let failures =
        failures @ match traced with Some t -> compare_passes jobs untraced t | None -> []
      in
      let attempted = List.length untraced.results * List.length out.passes in
      let failed = List.length failures in
      Printf.printf
        "== %s: seed %d, %d cycle(s) of %d jobs in %.2f s, -j %d, closed loop (one client)\n\
        \   host factor %.3f (median over jobs; times below are divided by it)\n"
        w.name opts.seed untraced.cycles
        (List.length jobs / untraced.cycles)
        untraced.tune_s w.lanes
        (Summary.median (List.map (fun (r : Child.result) -> r.host_factor) untraced.results));
      let e2e = end_to_end w ~setups ~peak_rss_mb:out.peak_rss_mb jobs untraced in
      let series = series w jobs untraced in
      print_metrics e2e;
      print_metrics series;
      List.iter (fun f -> Printf.printf "  FAILED %s\n" f) failures;
      Printf.printf "  failed %d of %d attempted\n" failed attempted;
      let metrics =
        match traced with
        | None -> e2e
        | Some traced ->
            let fold = Trace_file.load trace_path in
            let layers =
              Layers.compute w ~seed:opts.seed ~jobs ~untraced ~traced ~fold ~log ~scratch:dir
            in
            Printf.printf "-- per layer (traced pass: %.2f s)\n" traced.tune_s;
            print_metrics layers;
            print_spans fold;
            series @ layers
      in
      cleanup ();
      print_endline
        (Metrics.result_line ~correct:(failed = 0) ~attempted ~failed metrics);
      failed = 0

let run opts =
  print_endline (Host.line ());
  let ok = List.map (run_workload opts) opts.workloads in
  if List.for_all Fun.id ok then 0 else 1
