(* flextensor CLI: analyze operators, inspect schedule spaces, run the
   optimizer, and print generated schedules — a command-line face for
   the library. *)

open Cmdliner

(* The target table and operator construction live in
   Ft_workloads.Catalog, shared with the benchmark's operator specs. *)
let targets = Ft_workloads.Catalog.targets

let build_graph op dims =
  match Ft_workloads.Catalog.graph_of ~op ~dims with
  | Ok graph -> graph
  | Error msg -> raise (Invalid_argument msg)

let op_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc:"Operator name")

let dims_arg =
  Arg.(value & pos_right 0 int [] & info [] ~docv:"DIMS" ~doc:"Operator dimensions")

let target_arg =
  let target_conv = Arg.enum targets in
  Arg.(value & opt target_conv Flextensor.Target.v100 & info [ "t"; "target" ]
         ~docv:"TARGET" ~doc:"Hardware target: v100, p100, titanx, xeon, vu9p")

let seed_arg =
  Arg.(value & opt int 2020 & info [ "seed" ] ~docv:"SEED" ~doc:"Search seed")

let trials_arg =
  Arg.(value & opt int 60 & info [ "trials" ] ~docv:"N" ~doc:"Exploration trials")

(* An int >= 1; turns `-j 0` into a usage error instead of an
   uncaught Invalid_argument from deeper down. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok _ -> Error (`Msg "expected a positive integer")
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* A finite float > 0; `nan`, `inf`, `0` and negatives are usage
   errors rather than a watchdog that can never fire correctly. *)
let positive_float =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when Float.is_finite x && x > 0. -> Ok x
    | Ok _ -> Error (`Msg "expected a positive finite number")
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let jobs_arg =
  Arg.(value & opt (some positive_int) None & info [ "j"; "jobs" ] ~docv:"JOBS"
         ~doc:"Worker domains for batched candidate evaluation (default: \
               $(b,FT_JOBS) or the runtime's recommended domain count). \
               Never changes search results, only wall-clock speed.")

let n_parallel_arg =
  Arg.(value & opt positive_int 1 & info [ "n-parallel" ] ~docv:"N"
         ~doc:"Simulated measurement devices: the exploration clock charges \
               batched evaluations max-over-lanes in waves of $(docv) \
               (1 = the paper's single-device accounting).")

let set_jobs jobs = Option.iter Flextensor.Pool.set_default_jobs jobs

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a JSONL telemetry trace of the search to $(docv) \
               (spans, counters, events; see DESIGN.md §8).  Tracing \
               never changes search results.  $(b,FT_TRACE) is honoured \
               when this flag is absent.")

(* Trace setup for a command run: --trace wins, FT_TRACE is the
   fallback, otherwise tracing stays off (the zero-cost path). *)
let set_trace trace =
  match trace with
  | Some path -> Flextensor.Trace.enable_jsonl path
  | None -> Flextensor.Trace.init_from_env ()

(* On a traced run, print the accumulated counters and gauges as a
   summary table before closing the sink. *)
let finish_trace () =
  if Flextensor.Trace.active () then begin
    let rows =
      List.map (fun (name, n) -> [ name; string_of_int n ])
        (Flextensor.Trace.counters ())
      @ List.map (fun (name, v) -> [ name; Printf.sprintf "%g" v ])
          (Flextensor.Trace.gauges ())
    in
    if rows <> [] then begin
      print_newline ();
      Ft_util.Table.print ~header:[ "telemetry"; "value" ] rows
    end
  end;
  Flextensor.Trace.close ()

(* --method choices come from the registry: every method is selectable
   by its short key or its stable name (both map to the name).  A key
   equal to a name ("random") appears once. *)
let method_arg =
  let methods = Flextensor.Method.list () in
  let alternatives =
    List.fold_left
      (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
      []
      (List.concat_map
         (fun (m : Flextensor.Method.t) -> [ (m.key, m.name); (m.name, m.name) ])
         methods)
  in
  let doc =
    Printf.sprintf "Search method: %s (see $(b,flextensor methods))"
      (String.concat ", "
         (List.map (fun (m : Flextensor.Method.t) -> m.key) methods))
  in
  Arg.(value & opt (Arg.enum alternatives) "Q-method" & info [ "m"; "method" ]
         ~docv:"METHOD" ~doc)

(* --faults SPEC parses through Fault.of_spec, so a mistyped spec is a
   hard usage error — it must never silently run faultless. *)
let fault_conv =
  let parse s =
    match Flextensor.Fault.of_spec s with
    | Ok plan -> Ok plan
    | Error msg -> Error (`Msg msg)
  in
  let print ppf plan = Format.pp_print_string ppf (Flextensor.Fault.to_spec plan) in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(value & opt (some fault_conv) None & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Inject deterministic measurement faults, e.g. \
               $(b,seed=7,compile=0.1,timeout=0.05,noise=0.2) or the \
               shorthand $(b,rate=0.3).  Outcomes depend only on (fault \
               seed, config, attempt) — faulty runs replay bit-for-bit.  \
               $(b,FT_FAULTS) is honoured when this flag is absent.")

(* --faults wins; FT_FAULTS is the fallback.  A malformed environment
   value is warned about once and ignored (an env var must not make
   every invocation unusable), unlike the flag, which errors hard. *)
let resolve_faults = function
  | Some plan -> plan
  | None -> (
      match Sys.getenv_opt "FT_FAULTS" with
      | None | Some "" -> Flextensor.Fault.zero
      | Some s -> (
          match Flextensor.Fault.of_spec s with
          | Ok plan -> plan
          | Error msg ->
              Printf.eprintf "warning: ignoring FT_FAULTS=%S (%s)\n%!" s msg;
              Flextensor.Fault.zero))

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Periodically append resumable search state (incumbent, \
               trial index, RNG state) to the JSONL file $(docv); see \
               $(b,--resume).")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Continue from the newest matching checkpoint in \
               $(b,--checkpoint) (same operator, target, method and \
               seed).  The resumed search's final best is always at \
               least the checkpointed best.")

let measure_arg =
  Arg.(value & flag & info [ "measure" ]
         ~doc:"After the search finishes, compile the winning schedule \
               to a native loop nest, time it on this host (warmup + \
               median of repetitions), and report the measured GFLOPS \
               next to the model's prediction.  Measurement never \
               perturbs the search: seeded runs stay bit-for-bit \
               identical with or without this flag.")

(* Measurement isolation knobs (DESIGN.md §11).  The sandbox is the
   default because an in-process measurement that segfaults or hangs
   takes the whole tuner down with it; `--measure-isolate off` is the
   escape hatch for debugging the measurement path itself. *)
let measure_isolate_arg =
  Arg.(value & opt (enum [ ("on", true); ("off", false) ]) true
       & info [ "measure-isolate" ] ~docv:"on|off"
         ~doc:"Run each $(b,--measure) timing in a spawned worker \
               process with a watchdog and rlimits, so a hang, segfault, or \
               out-of-memory kernel is contained as an invalid result \
               instead of killing the tuner.  $(b,off) times in-process \
               (faster to debug, no containment).")

let measure_timeout_arg =
  Arg.(value & opt positive_float 10. & info [ "measure-timeout" ] ~docv:"SECONDS"
         ~doc:"Wall-clock budget per sandboxed measurement; on expiry \
               the child is killed (SIGKILL) and the result is invalid \
               with a timeout reason.  Only meaningful with \
               $(b,--measure-isolate on).")

let measure_mem_mb_arg =
  Arg.(value & opt int 4096 & info [ "measure-mem-mb" ] ~docv:"MB"
         ~doc:"Address-space cap (RLIMIT_AS) for the sandboxed \
               measurement child, in MiB; an allocation past the cap is \
               contained as an out-of-memory result.  0 disables the \
               cap.  Only meaningful with $(b,--measure-isolate on).")

let log_arg =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
         ~doc:"Append the finished search to the JSONL tuning log $(docv) \
               (created if missing).  Logging never changes search \
               results — the store consumes no search RNG.")

(* --reuse consults a repository before searching: bare `--reuse`
   means the local --log file; `--reuse=HOST:PORT` (or unix:PATH)
   means the shared repository served by `flextensor serve`.  The
   optional value must be attached with `=` (cmdliner vopt rules). *)
let reuse_arg =
  Arg.(value & opt ~vopt:(Some "local") (some string) None & info [ "reuse" ]
         ~docv:"ADDR"
         ~doc:"Consult a schedule repository before searching: an exact \
               hit reapplies the logged schedule with zero fresh \
               measurements; a near-shape hit warm-starts the search \
               with transferred schedules.  Bare $(b,--reuse) reads the \
               $(b,--log) file; $(b,--reuse=HOST:PORT) (or \
               $(b,--reuse=unix:PATH)) queries a $(b,flextensor serve) \
               daemon and appends the finished search to it.")

(* Open a tuning log, surfacing (but tolerating) malformed lines. *)
let open_store path =
  let store = Flextensor.Store.load path in
  List.iter
    (fun { Flextensor.Store.line; reason } ->
      Printf.eprintf "warning: %s:%d: skipped malformed log line (%s)\n" path
        line reason)
    (Flextensor.Store.issues store);
  store

let with_graph op dims f =
  match build_graph op dims with
  | graph -> f graph
  | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let analyze_cmd =
  let run op dims =
    with_graph op dims (fun graph ->
        let info = Flextensor.Static_analyzer.analyze graph in
        Format.printf "%a@." Flextensor.Static_analyzer.pp info;
        let roofline = Ft_analysis.Roofline.of_graph graph in
        Format.printf "roofline: %a@." Ft_analysis.Roofline.pp roofline;
        List.iter
          (fun (name, target) ->
            Printf.printf "  %-7s ceiling %8.1f GFLOPS (%s)\n" name
              (Ft_analysis.Roofline.ceiling_gflops roofline target)
              (if Ft_analysis.Roofline.memory_bound roofline target then
                 "memory-bound" else "compute-bound"))
          targets)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Static analysis of an operator (Table 3 info)")
    Term.(const run $ op_arg $ dims_arg)

let space_cmd =
  let run op dims target =
    with_graph op dims (fun graph ->
        let space = Flextensor.Space.make graph target in
        Printf.printf "target: %s\n" (Flextensor.Target.name target);
        Printf.printf "schedule space size: %.3e points\n" (Flextensor.Space.size space);
        Printf.printf "directions per point: %d\n"
          (List.length (Flextensor.Neighborhood.directions space));
        Printf.printf "feature dimension: %d\n" (Flextensor.Space.feature_dim space))
  in
  Cmd.v (Cmd.info "space" ~doc:"Schedule-space statistics for an operator")
    Term.(const run $ op_arg $ dims_arg $ target_arg)

let optimize_cmd =
  let run op dims target seed trials search jobs n_parallel trace log reuse
      faults checkpoint resume measure measure_isolate measure_timeout
      measure_mem_mb =
    with_graph op dims (fun graph ->
        set_jobs jobs;
        set_trace trace;
        (if reuse = Some "local" && Option.is_none log then begin
           Printf.eprintf "error: --reuse requires --log FILE (or a daemon \
                           address: --reuse=HOST:PORT)\n";
           exit 1
         end);
        (if resume && Option.is_none checkpoint then begin
           Printf.eprintf "error: --resume requires --checkpoint FILE\n";
           exit 1
         end);
        let faults = resolve_faults faults in
        let store = Option.map open_store log in
        (* A daemon address the user typed must be reachable — failing
           over to a silent cold search would hide a typo; mid-run
           transport errors do degrade silently (lib contract). *)
        let remote =
          match reuse with
          | Some addr when addr <> "local" -> (
              match Flextensor.Store_client.connect addr with
              | Ok client -> (
                  match Flextensor.Store_client.ping client with
                  | Ok () -> Some client
                  | Error msg ->
                      Printf.eprintf
                        "error: tuning service %s did not answer: %s\n" addr msg;
                      exit 1)
              | Error msg ->
                  Printf.eprintf "error: cannot reach tuning service: %s\n" msg;
                  exit 1)
          | _ -> None
        in
        let reuse = Option.is_some reuse in
        let options =
          { Flextensor.default_options with seed; n_trials = trials; search;
            n_parallel; faults; checkpoint; resume }
        in
        let measurer =
          if not measure then None
          else
            let space = Flextensor.Space.make graph target in
            if measure_isolate then
              let limits =
                {
                  Flextensor.Sandbox.timeout_s = measure_timeout;
                  mem_mb =
                    (if measure_mem_mb <= 0 then None else Some measure_mem_mb);
                }
              in
              Some (Flextensor.Sandbox.measurer ~limits space)
            else Some (fun cfg -> Flextensor.Measure.run space cfg)
        in
        (* The search loop itself is silent about resuming; surface the
           checkpoint it will pick up (same run identity, newest wins)
           so a resumed run is visibly a resumed run. *)
        (if resume then
           match checkpoint with
           | None -> ()
           | Some path ->
               let space = Flextensor.Space.make graph target in
               let run_id =
                 Flextensor.Search_loop.run_id ~method_name:search
                   { Flextensor.Search_loop.default_params with seed }
                   space
               in
               let ck, issues = Flextensor.Checkpoint.latest ~run_id path in
               List.iter
                 (fun { Flextensor.Checkpoint.line; reason } ->
                   Printf.eprintf
                     "warning: %s:%d: skipped malformed checkpoint line (%s)\n"
                     path line reason)
                 issues;
               match ck with
               | Some ck ->
                   Printf.printf
                     "resuming from checkpoint: trial %d, best %.2f\n"
                     ck.Flextensor.Checkpoint.trial
                     ck.Flextensor.Checkpoint.best_value
               | None ->
                   Printf.printf
                     "no matching checkpoint in %s; starting fresh\n" path);
        let report =
          try
            Flextensor.Trace.with_span "run"
              ~fields:
                [ ("op", Str op);
                  ("target", Str (Flextensor.Target.name target));
                  ("method", Str search);
                  ("seed", Int seed);
                  ("trials", Int trials) ]
              (fun () ->
                Flextensor.optimize ~options ?store ?remote ~reuse ?measurer
                  graph target)
          with Flextensor.Fault.Injected_crash trial ->
            finish_trace ();
            Printf.eprintf
              "error: injected crash at trial %d%s\n" trial
              (match checkpoint with
              | Some path ->
                  Printf.sprintf
                    "; resume with --resume --checkpoint %s" path
              | None -> " (no --checkpoint; progress lost)");
            exit 9
        in
        (if not report.perf.Flextensor.Perf.valid then begin
           finish_trace ();
           Printf.eprintf
             "error: search finished without a valid schedule (%s)\n"
             report.perf.Flextensor.Perf.note;
           exit 3
         end);
        Option.iter Flextensor.Store_client.close remote;
        let repo_name = if Option.is_some remote then "tuning service" else "tuning log" in
        (match report.provenance with
        | Flextensor.Searched -> ()
        | Flextensor.Transferred n ->
            Printf.printf
              "%s: warm start with %d transferred schedule(s)\n" repo_name n
        | Flextensor.Reused ->
            Printf.printf
              "%s: exact hit, reused logged schedule (no search, no \
               fresh measurements)\n" repo_name);
        print_endline (Flextensor.report_summary report);
        Printf.printf "config: %s\n" (Flextensor.Config_io.to_string report.config);
        print_endline "\nschedule primitives:";
        List.iter
          (fun prim -> Printf.printf "  %s\n" (Flextensor.Primitive.to_string prim))
          report.primitives;
        finish_trace ())
  in
  Cmd.v (Cmd.info "optimize" ~doc:"Explore the schedule space and report the best")
    Term.(const run $ op_arg $ dims_arg $ target_arg $ seed_arg $ trials_arg
          $ method_arg $ jobs_arg $ n_parallel_arg $ trace_arg $ log_arg
          $ reuse_arg $ faults_arg $ checkpoint_arg $ resume_arg $ measure_arg
          $ measure_isolate_arg $ measure_timeout_arg $ measure_mem_mb_arg)

(* `schedule replay`: reapply a tuning-log entry without searching and
   check that the recomputed value equals the logged best bit-for-bit
   (the cost model is deterministic, so any drift means the log no
   longer matches the code). *)
let replay_cmd =
  let replay_log_arg =
    Arg.(required & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"JSONL tuning log to replay from.")
  in
  let run op dims target search log =
    with_graph op dims (fun graph ->
        let store = open_store log in
        let space = Flextensor.Space.make graph target in
        let key = Flextensor.Store_record.key_of_space space in
        let method_name = search in
        match Flextensor.Store.best_exact ~method_name store key with
        | None ->
            Printf.eprintf "error: no %s record for %s on %s in %s\n"
              method_name key.Flextensor.Store_record.graph
              (Flextensor.Target.name target) log;
            exit 1
        | Some record -> (
            match
              Flextensor.reapply graph target record.Flextensor.Store_record.config
            with
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 1
            | Ok report ->
                Printf.printf "replayed config: %s\n"
                  record.Flextensor.Store_record.config;
                print_endline (Flextensor.report_summary report);
                if report.perf_value = record.Flextensor.Store_record.best_value
                then
                  Printf.printf "replay matches the logged best (%.17g)\n"
                    report.perf_value
                else begin
                  Printf.eprintf
                    "error: replayed value %.17g differs from logged best \
                     %.17g\n"
                    report.perf_value record.Flextensor.Store_record.best_value;
                  exit 1
                end))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Reapply the best logged schedule for an operator without \
             searching; fail if its value no longer matches the log")
    Term.(const run $ op_arg $ dims_arg $ target_arg $ method_arg
          $ replay_log_arg)

let schedule_print_cmd =
  let run op dims target seed trials jobs =
    with_graph op dims (fun graph ->
        set_jobs jobs;
        let options = { Flextensor.default_options with seed; n_trials = trials } in
        let report = Flextensor.optimize ~options graph target in
        print_string (Flextensor.generated_code report))
  in
  Cmd.v
    (Cmd.info "print"
       ~doc:"Optimize and print the generated loop nest of the best schedule")
    Term.(const run $ op_arg $ dims_arg $ target_arg $ seed_arg $ trials_arg
          $ jobs_arg)

let schedule_subcommands = [ "print"; "replay" ]

let schedule_cmd =
  Cmd.group
    (Cmd.info "schedule"
       ~doc:"Print the generated loop nest of the best schedule \
             ($(b,print), the default), or $(b,replay) a tuning-log entry")
    [ schedule_print_cmd; replay_cmd ]

let verify_cmd =
  let run op dims target seed trials jobs =
    with_graph op dims (fun graph ->
        set_jobs jobs;
        let options = { Flextensor.default_options with seed; n_trials = trials } in
        let report = Flextensor.optimize ~options graph target in
        match Flextensor.verify report with
        | Ok () -> print_endline "verified: scheduled execution matches the reference"
        | Error msg ->
            Printf.eprintf "verification FAILED: %s\n" msg;
            exit 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Optimize, then execute the schedule against the naive reference \
             (use small dims; execution is point by point)")
    Term.(const run $ op_arg $ dims_arg $ target_arg $ seed_arg $ trials_arg
          $ jobs_arg)

let methods_cmd =
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ]
           ~doc:"Print only the stable method names, one per line (for \
                 scripting).")
  in
  let run quiet =
    let methods = Flextensor.Method.list () in
    if quiet then
      List.iter (fun (m : Flextensor.Method.t) -> print_endline m.name) methods
    else
      Ft_util.Table.print ~header:[ "key"; "method"; "description" ]
        (List.map
           (fun (m : Flextensor.Method.t) -> [ m.key; m.name; m.description ])
           methods)
  in
  Cmd.v
    (Cmd.info "methods"
       ~doc:"List the registered search methods (usable with $(b,optimize \
             -m); names are stable tuning-log keys)")
    Term.(const run $ quiet_arg)

let compare_cmd =
  let run op dims target seed trials jobs =
    with_graph op dims (fun graph ->
        set_jobs jobs;
        let options = { Flextensor.default_options with seed; n_trials = trials } in
        let report = Flextensor.optimize ~options graph target in
        Printf.printf "FlexTensor: %.1f (GFLOPS or GB/s)\n" report.perf_value;
        (match target with
        | Flextensor.Target.Gpu _ ->
            if Ft_baselines.Cudnn.supported graph then begin
              let verdict = Ft_baselines.Cudnn.evaluate target graph in
              Printf.printf "cuDNN (%s): %.1f\n" verdict.algo verdict.perf.gflops
            end
            else if Ft_baselines.Cublas.supported graph then begin
              let _, perf = Ft_baselines.Cublas.evaluate target graph in
              Printf.printf "cuBLAS: %.1f\n" perf.gflops
            end;
            let _, pt = Ft_baselines.Pytorch_native.evaluate target graph in
            Printf.printf "PyTorch native: %.1f\n" pt.gflops
        | Flextensor.Target.Cpu _ ->
            if Ft_baselines.Mkldnn.supported graph then begin
              let _, perf = Ft_baselines.Mkldnn.evaluate target graph in
              Printf.printf "MKL-DNN: %.1f\n" perf.gflops
            end
        | Flextensor.Target.Fpga _ ->
            let _, perf = Ft_baselines.Opencl_fpga.evaluate target graph in
            Printf.printf "OpenCL baseline: %.1f\n" perf.gflops))
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare FlexTensor against the platform's library")
    Term.(const run $ op_arg $ dims_arg $ target_arg $ seed_arg $ trials_arg
          $ jobs_arg)

let store_dir_arg =
  Arg.(required & opt (some string) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Sharded store directory (created if missing): one JSONL \
               shard file per operator.")

let open_repo ?compact_every ?k dir =
  let repo = Flextensor.Store_shard.open_dir ?k ?compact_every dir in
  List.iter
    (fun { Flextensor.Store_shard.shard; line; reason } ->
      Printf.eprintf "warning: %s/%s.jsonl:%d: skipped malformed line (%s)\n"
        dir shard line reason)
    (Flextensor.Store_shard.issues repo);
  repo

let serve_cmd =
  let listen_arg =
    Arg.(value & opt string "127.0.0.1:4820" & info [ "listen" ] ~docv:"ADDR"
           ~doc:"Listen address: $(b,HOST:PORT), $(b,:PORT), $(b,PORT) \
                 (TCP, port 0 picks an ephemeral port) or \
                 $(b,unix:PATH).")
  in
  let compact_every_arg =
    Arg.(value & opt (some positive_int) None & info [ "compact-every" ]
           ~docv:"N"
           ~doc:"Auto-compact a shard after $(docv) appends to it \
                 (default: only on demand via $(b,flextensor store \
                 compact)).")
  in
  let k_arg =
    Arg.(value & opt positive_int 4 & info [ "k" ] ~docv:"K"
           ~doc:"Best-$(docv) records retained per (key, method) by \
                 compaction.")
  in
  let run dir listen compact_every k =
    let repo = open_repo ?compact_every ~k dir in
    match Flextensor.Store_server.create ~repo ~listen () with
    | exception Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | server ->
        (* The address line is the readiness signal scripts poll for;
           flush it before blocking in the accept loop. *)
        Printf.printf "flextensor serve: %d record(s) in %s, listening on %s\n%!"
          (Flextensor.Store_shard.count repo) dir
          (Flextensor.Store_server.address server);
        let stop _ =
          Flextensor.Store_server.stop server;
          exit 0
        in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Flextensor.Store_server.serve server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a sharded schedule repository to $(b,optimize \
             --reuse=HOST:PORT) clients (see DESIGN.md \u{00a7}13)")
    Term.(const run $ store_dir_arg $ listen_arg $ compact_every_arg $ k_arg)

(* `store` admin subcommands: offline maintenance of a store directory
   plus the `ping` readiness probe scripts use to wait for a daemon. *)
let store_cmd =
  let addr_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR"
           ~doc:"Daemon address ($(b,HOST:PORT) or $(b,unix:PATH)).")
  in
  let ping_cmd =
    let run addr =
      match Flextensor.Store_client.connect addr with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      | Ok client -> (
          let result = Flextensor.Store_client.ping client in
          Flextensor.Store_client.close client;
          match result with
          | Ok () -> Printf.printf "%s: ok\n" addr
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit 1)
    in
    Cmd.v
      (Cmd.info "ping"
         ~doc:"Check that a tuning daemon answers (exit 0 iff reachable)")
      Term.(const run $ addr_arg)
  in
  let stats_cmd =
    let run addr =
      match Flextensor.Store_client.connect addr with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      | Ok client -> (
          let result = Flextensor.Store_client.stats client in
          Flextensor.Store_client.close client;
          match result with
          | Ok (count, shards) ->
              Printf.printf "%s: %d record(s) in %d shard(s)\n" addr count
                shards
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit 1)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Record and shard counts of a running daemon")
      Term.(const run $ addr_arg)
  in
  let compact_cmd =
    let k_arg =
      Arg.(value & opt positive_int 4 & info [ "k" ] ~docv:"K"
             ~doc:"Best-$(docv) records retained per (key, method).")
    in
    let run dir k =
      let repo = open_repo ~k dir in
      let kept, dropped = Flextensor.Store_shard.compact_all repo in
      Printf.printf "%s: kept %d record(s), dropped %d across %d shard(s)\n"
        dir kept dropped
        (List.length (Flextensor.Store_shard.shards repo))
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:"Rewrite every shard of a store directory keeping the \
               best-$(b,K) records per (key, method).  Do not run against \
               a directory a daemon is serving: the daemon's index would \
               not see the rewrite.")
      Term.(const run $ store_dir_arg $ k_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Administer a sharded schedule store: $(b,ping) / $(b,stats) a \
             daemon, $(b,compact) a directory offline")
    [ ping_cmd; stats_cmd; compact_cmd ]

let () =
  (* FT_TRACE covers commands without a --trace flag; [close] is
     idempotent, so a traced optimize run closing its own sink first is
     fine. *)
  Flextensor.Trace.init_from_env ();
  at_exit Flextensor.Trace.close;
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  (* Backwards compatibility: `schedule OP DIMS…` predates the
     `schedule` subcommands, so an operator name in subcommand position
     is rewritten to `schedule print OP DIMS…`. *)
  let argv = Sys.argv in
  let argv =
    if
      Array.length argv >= 3
      && String.equal argv.(1) "schedule"
      && String.length argv.(2) > 0
      && argv.(2).[0] <> '-'
      && not (List.mem argv.(2) schedule_subcommands)
    then
      Array.concat
        [ Array.sub argv 0 2; [| "print" |];
          Array.sub argv 2 (Array.length argv - 2) ]
    else argv
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group ~default
          (Cmd.info "flextensor" ~version:"1.0.0"
             ~doc:"Automatic schedule exploration for tensor computation")
          [ analyze_cmd; space_cmd; optimize_cmd; schedule_cmd; verify_cmd;
            compare_cmd; methods_cmd; serve_cmd; store_cmd ]))
