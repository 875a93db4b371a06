(* Reproduction harness: every table and figure of the paper's
   evaluation, plus ablations and micro-benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig5    # one experiment

   DESIGN.md carries the per-experiment index; EXPERIMENTS.md records
   paper-vs-measured values. *)

let experiments =
  [
    ("fig1", Fig1.run);
    ("table3", Tables.table3);
    ("table4", Tables.table4);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("sec64", Sec64.run);
    ("sec65", Sec65.run);
    ("sec66", Sec66.run);
    ("ablation", Ablation.run);
    ("micro", Micro.run);
    ("faults", Faults.run);
    ("store", Store_bench.run);
    ("model", Model_bench.run);
    ("sandbox", Sandbox_bench.run);
  ]

let () =
  (* [-j N] sizes the shared domain pool for batched evaluation
     (default: FT_JOBS or the runtime's recommendation); remaining
     arguments select experiments.  FT_TRACE turns on telemetry for the
     whole bench run. *)
  Ft_obs.Trace.init_from_env ();
  at_exit Ft_obs.Trace.close;
  let usage () =
    Printf.eprintf "usage: bench [-j JOBS] [experiment ...]\n";
    exit 1
  in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "-j" :: rest -> (
        match rest with
        | n :: rest' -> (
            match int_of_string_opt n with
            | Some jobs when jobs >= 1 ->
                Ft_par.Pool.set_default_jobs jobs;
                parse_args acc rest'
            | _ ->
                Printf.eprintf "-j: expected a positive integer, got %s\n" n;
                usage ())
        | [] ->
            Printf.eprintf "-j: missing value\n";
            usage ())
    | arg :: rest -> parse_args (arg :: acc) rest
  in
  let selected =
    match parse_args [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | args -> args
  in
  let t0 = Ft_util.Monotime.now_s () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    selected;
  Printf.printf "\n[bench completed in %.1f s wall clock]\n"
    (Ft_util.Monotime.elapsed_s t0)
