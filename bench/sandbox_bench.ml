(* Sandbox chaos table and overhead micro-benchmark (DESIGN.md §11).

   Two results go to BENCH_sandbox.json:

   (1) survival — one sandboxed measurement per injected fault kind
       (hang, segfault, rlimit OOM, garbage frame, truncated frame,
       silent exit), each of which must come back as an invalid perf
       with a structured reason while the harness itself keeps
       running.  CI gates survival at exactly 1.0;
   (2) overhead — on a well-behaved tiny gemm, ms/measurement
       in-process vs sandboxed on the live worker (pipes + watchdog),
       plus the first measurement on a fresh worker (spawn_ms).  CI
       bounds the absolute sandboxed cost.

   The chaos kinds are real faults, not simulations: Segv dereferences
   a null pointer in the worker, Oom_hog allocates until RLIMIT_AS
   bites, Hang sleeps past the watchdog. *)

open Ft_schedule
module Json = Ft_store.Json
module Sandbox = Flextensor.Sandbox

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* FT_BENCH_SANDBOX_REPS shrinks the overhead sample for smoke jobs. *)
let overhead_reps () = env_int "FT_BENCH_SANDBOX_REPS" 32

let space () =
  Space.make
    (Ft_ir.Operators.gemm ~m:16 ~n:16 ~k:16)
    Model_bench.host_interp

(* Per-kind budgets so each fault is contained by its own mechanism:
   the hang must cost ~timeout_s (not the default 10 s), while the
   memory hog needs the watchdog to outlast RLIMIT_AS — a tight cap
   makes the allocator trip the limit well inside the budget. *)
let chaos_limits = function
  | Sandbox.Hang -> { Sandbox.timeout_s = 1.; mem_mb = Some 1024 }
  | Sandbox.Oom_hog -> { Sandbox.timeout_s = 5.; mem_mb = Some 512 }
  | _ -> { Sandbox.timeout_s = 5.; mem_mb = Some 1024 }

let chaos_kinds =
  Sandbox.[ Hang; Segv; Oom_hog; Garbage; Truncated; Silent ]

(* One injected fault through the full measurer path (retry policy
   disabled so a hang costs one timeout, not two).  Contained means:
   the call returned (rather than killing us) and the result is the
   structured invalid perf the fault taxonomy promises. *)
let run_chaos kind =
  let space = space () in
  let cfg = Space.default_config space in
  let measure =
    Sandbox.measurer ~limits:(chaos_limits kind)
      ~policy:{ Ft_fault.Resilience.max_retries = 0; backoff_s = 0. }
      ~chaos:(fun _ -> Some kind)
      space
  in
  let t0 = Flextensor.Monotime.now_s () in
  let perf = measure cfg in
  let elapsed_s = Flextensor.Monotime.elapsed_s t0 in
  let contained =
    (not perf.Ft_hw.Perf.valid) && String.length (Ft_hw.Perf.note perf) > 0
  in
  (Sandbox.chaos_to_string kind, Ft_hw.Perf.note perf, elapsed_s, contained)

(* ms per measurement over [n] runs of [f], untimed [before] each.
   Every side times the default config; the sandboxed sides call
   [Sandbox.run] directly, so no quarantine table is consulted. *)
let time_per_call ?(before = ignore) n f =
  let total = ref 0. in
  for _ = 1 to n do
    before ();
    let t0 = Flextensor.Monotime.now_s () in
    f ();
    total := !total +. Flextensor.Monotime.elapsed_s t0
  done;
  !total /. float_of_int n *. 1e3

let overhead () =
  let space = space () in
  let cfg = Space.default_config space in
  let n = overhead_reps () in
  let inproc_ms =
    time_per_call n (fun () ->
        ignore (Flextensor.Measure.run ~reps:2 space cfg))
  in
  let sandboxed () =
    match Sandbox.run ~reps:2 space cfg with
    | Ok _ -> ()
    | Error fault -> failwith (Ft_fault.Resilience.to_string fault)
  in
  (* a silent request retires the live worker, so the next spawns *)
  let retire () = ignore (Sandbox.run ~chaos:Sandbox.Silent space cfg) in
  let spawn_ms = time_per_call ~before:retire n sandboxed in
  let warm_ms = time_per_call n sandboxed in
  (inproc_ms, spawn_ms, warm_ms)

let write_json ~chaos ~survival ~inproc_ms ~spawn_ms ~sandboxed_ms path =
  let num f = Json.Num f in
  let json =
    Json.Obj
      ((("bench", Json.Str "sandbox") :: Bench_common.host_fields ())
      @ [
        ( "chaos",
          Json.Arr
            (List.map
               (fun (kind, note, elapsed_s, contained) ->
                 Json.Obj
                   [
                     ("kind", Json.Str kind);
                     ("outcome", Json.Str note);
                     ("elapsed_ms", num (elapsed_s *. 1e3));
                     ("contained", Json.Bool contained);
                   ])
               chaos) );
        ("survival", num survival);
        ( "overhead",
          Json.Obj
            [
              ("reps", num (float_of_int (overhead_reps ())));
              ("inproc_ms_per_measurement", num inproc_ms);
              ("sandboxed_ms_per_measurement", num sandboxed_ms);
              ("spawn_ms", num spawn_ms);
              ("ratio", num (sandboxed_ms /. inproc_ms));
            ] );
      ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let run () =
  Bench_common.section
    "Measurement sandbox: chaos containment and isolation overhead";
  Bench_common.subsection "injected faults (one sandboxed request each; each ends its worker)";
  let chaos = List.map run_chaos chaos_kinds in
  Ft_util.Table.print
    ~header:[ "fault"; "contained"; "ms"; "reported as" ]
    (List.map
       (fun (kind, note, elapsed_s, contained) ->
         [
           kind;
           (if contained then "yes" else "NO");
           Printf.sprintf "%.0f" (elapsed_s *. 1e3);
           note;
         ])
       chaos);
  let survived =
    List.length (List.filter (fun (_, _, _, c) -> c) chaos)
  in
  let survival = float_of_int survived /. float_of_int (List.length chaos) in
  Printf.printf "\nsurvival: %d/%d (%.0f%%)\n" survived (List.length chaos)
    (survival *. 100.);
  Bench_common.subsection
    (Printf.sprintf "pipe + watchdog overhead and spawn cost (%d reps, gemm 16^3)"
       (overhead_reps ()));
  let inproc_ms, spawn_ms, sandboxed_ms = overhead () in
  Printf.printf
    "in-process %.2f ms/measurement, sandboxed %.2f ms/measurement (%.1fx), \
     first on a fresh worker %.2f ms\n"
    inproc_ms sandboxed_ms
    (sandboxed_ms /. inproc_ms)
    spawn_ms;
  write_json ~chaos ~survival ~inproc_ms ~spawn_ms ~sandboxed_ms "BENCH_sandbox.json";
  print_endline "\n[wrote BENCH_sandbox.json]"
