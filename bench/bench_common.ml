open Ft_schedule

(* Shared budgets and helpers for the reproduction harness.  Budgets
   are chosen so the full `dune exec bench/main.exe` completes in a few
   minutes while every search has converged reasonably. *)

let seed = 2020
let search_evals = 350
let autotvm_rounds = 20

let gpu_targets = Target.[ v100; p100; titan_x ]

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let fmt_gf = Ft_util.Table.fmt_float ~digits:1

(* Run any method by name at the harness budgets: an
   effectively unlimited trial count bounded by the measurement
   budget. *)
let search_method ?(n_trials = 10_000) ?max_evals ?(heuristic_seeds = true)
    ?(steps = Ft_explore.Search_loop.default_params.steps) name graph target =
  let space = Space.make graph target in
  (Ft_explore.Method.find_exn name).search
    {
      Ft_explore.Search_loop.default_params with
      seed;
      n_trials;
      max_evals;
      heuristic_seeds;
      steps;
    }
    space

(* Best FlexTensor (Q-method) performance value on a graph. *)
let flextensor_search ?(max_evals = search_evals) graph target =
  search_method ~max_evals "Q-method" graph target

let autotvm_search ?(rounds = autotvm_rounds) graph target =
  search_method ~n_trials:rounds "AutoTVM" graph target

(* Library baseline perf value for a graph on a GPU target, following
   the paper's comparison rules: cuDNN for convolutions, cuBLAS for the
   matmul family, PyTorch-native otherwise (shift has no library). *)
let gpu_library_value graph target =
  if Ft_baselines.Cudnn.supported graph then
    let verdict = Ft_baselines.Cudnn.evaluate target graph in
    (verdict.perf, "cuDNN(" ^ verdict.algo ^ ")")
  else if Ft_baselines.Cublas.supported graph then
    let _, perf = Ft_baselines.Cublas.evaluate target graph in
    (perf, "cuBLAS")
  else
    let _, perf = Ft_baselines.Pytorch_native.evaluate target graph in
    (perf, "PyTorch")

let perf_value graph target (perf : Ft_hw.Perf.t) =
  Ft_hw.Cost.perf_value (Space.make graph target) perf

let geomean_or_nan = function [] -> nan | xs -> Ft_util.Stats.geomean xs

(* The host a BENCH file was generated on, recorded next to its
   numbers: core count and the C compiler's version line. *)
let cc_version () =
  match Unix.open_process_in "cc --version 2>/dev/null" with
  | ic ->
      let line = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      line
  | exception Unix.Unix_error _ -> "unknown"

let host_fields () =
  [
    ("cores", Ft_util.Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("cc", Ft_util.Json.Str (cc_version ()));
  ]
