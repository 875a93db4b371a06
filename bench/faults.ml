open Ft_schedule
open Bench_common

(* `bench faults`: graceful-degradation table.  Every search
   method runs the same small GEMM under increasing injected fault
   rates (the `rate=R` spec shorthand: R split evenly over compile
   errors, timeouts and runtime crashes).  The rate-0 column is the
   clean baseline — by the zero-fault invisibility invariant it is
   bit-for-bit the value a build without the fault layer reports — and
   the remaining columns show how gracefully each method degrades as
   measurements start failing. *)

let rates = [ 0.0; 0.1; 0.2; 0.4; 0.6 ]

let plan_for rate =
  if rate = 0. then Ft_fault.Plan.zero
  else
    match
      Ft_fault.Plan.of_spec (Printf.sprintf "seed=7,rate=%g,noise=0.1" rate)
    with
    | Ok plan -> plan
    | Error msg -> failwith msg

let run () =
  section "Fault-injection degradation";
  let graph = Ft_ir.Operators.gemm ~m:256 ~n:256 ~k:256 in
  let target = Target.v100 in
  let space = Space.make graph target in
  Printf.printf
    "gemm 256^3 on %s, best value (GFLOPS) under injected fault rate\n"
    (Target.name target);
  let cell (m : Ft_explore.Method.t) rate =
    let result =
      m.search
        {
          Ft_explore.Search_loop.default_params with
          seed;
          n_trials = 40;
          max_evals = Some 120;
          faults = plan_for rate;
        }
        space
    in
    (* A run whose every candidate was quarantined has no schedule to
       report — the zero must not read as a measured value. *)
    if Ft_explore.Driver.succeeded result then fmt_gf result.best_value
    else "failed"
  in
  Ft_util.Table.print
    ~header:
      ("method" :: List.map (fun r -> Printf.sprintf "rate %.1f" r) rates)
    (List.map
       (fun (m : Ft_explore.Method.t) -> m.name :: List.map (cell m) rates)
       (Ft_explore.Method.all))
