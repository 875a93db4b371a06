(* Wall-clock measurement of a scheduled config through the compiled
   executor: lower, compile, bind once to random inputs, warm up, then
   time [reps] repetitions.  The reported time is the median rep (robust
   to scheduler noise); the fastest rep rides along in the provenance.

   The FLOP count is [Op.flops] of the compute node — the same count
   every analytical model divides by — so measured and predicted
   GFLOPS are on one scale.  Re-running the thunk is sound because the
   lowered init nests re-zero accumulators on every execution. *)

(* Fixed inputs: every measurement of a config times the same data. *)
let seed = 2020

let run ?(reps = 5) (space : Ft_schedule.Space.t) cfg =
  if not (Ft_schedule.Space.valid space cfg) then
    Ft_hw.Perf.invalid (lazy "config outside the schedule space")
  else
    let reps = max 1 reps in
    let program = Lowering.lower space cfg in
    let compiled = Compile.compile program in
    let rng = Ft_util.Rng.create seed in
    let env = Ft_interp.Reference.random_env rng space.graph in
    let thunk = Compile.bind compiled env in
    (* One untimed run warms the caches. *)
    thunk ();
    let times =
      Array.init reps (fun _ ->
          let t0 = Ft_util.Monotime.now_s () in
          thunk ();
          Ft_util.Monotime.elapsed_s t0)
    in
    Array.sort Float.compare times;
    let time_s = Float.max (Ft_util.Stats.median times) 1e-9 in
    let min_ns = Float.max times.(0) 1e-9 *. 1e9 in
    Ft_hw.Perf.measured
      ~flops:(Ft_ir.Op.flops space.node)
      ~time_s ~reps ~min_ns
      ~note:(Printf.sprintf "host-compiled %s" program.source)

(* Wall-clock of the reference tree-walking interpreter on the same
   program shape — the baseline the compiled executor's speedup is
   quoted against. *)
let interp_time_s (space : Ft_schedule.Space.t) cfg =
  let program = Lowering.lower space cfg in
  let rng = Ft_util.Rng.create seed in
  let env = Ft_interp.Reference.random_env rng space.graph in
  let t0 = Ft_util.Monotime.now_s () in
  Exec.run env program;
  Ft_util.Monotime.elapsed_s t0
