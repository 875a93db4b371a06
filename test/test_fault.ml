(* The failure model and the resilience loop above it: spec parsing,
   outcome purity, the attempt loop on a scripted source, the
   evaluator's retry / median / quarantine / lane
   degradation behavior with exact simulated-clock math, crash-safe
   checkpoint resume, and the two cardinal invariants — a rate-0 plan
   is bit-for-bit invisible, and faulty runs replay bit-for-bit. *)

open Ft_schedule
open Ft_fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_clock = Alcotest.(check (float 1e-9))

let gemm_space () = Space.make (Ft_ir.Operators.gemm ~m:64 ~n:64 ~k:64) Target.v100
let temp_ck () = Filename.temp_file "ft_fault_ck" ".jsonl"

(* -- Plan: spec parsing --------------------------------------------- *)

let test_spec_roundtrip () =
  let specs =
    [
      "seed=7,compile_error=0.1,timeout=0.05,noise=0.2,jitter=0.15";
      "rate=0.3";
      "seed=3,crash=0.2,lane=0.1,crash_at=12";
      "compile=0.5";
    ]
  in
  List.iter
    (fun spec ->
      match Plan.of_spec spec with
      | Error msg -> Alcotest.fail (spec ^ ": " ^ msg)
      | Ok plan ->
          check_bool (spec ^ " roundtrips") true
            (Plan.of_spec (Plan.to_spec plan) = Ok plan))
    specs;
  (match Plan.of_spec "rate=0.3" with
  | Ok p ->
      check_clock "rate splits over the hard kinds" 0.3
        (p.Plan.compile_error +. p.Plan.timeout +. p.Plan.runtime_crash);
      check_clock "rate leaves noise alone" 0. p.Plan.noise
  | Error msg -> Alcotest.fail msg);
  check_bool "zero plan injects nothing" false (Plan.injects_measurement_faults Plan.zero);
  check_bool "crash_at alone injects no measurement fault" false
    (Plan.injects_measurement_faults { Plan.zero with crash_at_trial = Some 3 })

let test_spec_rejects () =
  List.iter
    (fun spec ->
      check_bool ("rejects " ^ spec) true (Result.is_error (Plan.of_spec spec)))
    [
      "";
      ",,";
      "bogus=1";
      "seed";
      "seed=x";
      "compile_error=1.5";
      "timeout=-0.1";
      "noise=abc";
      "jitter=-1";
      "crash_at=0";
      (* rates must sum to at most 1 *)
      "compile=0.6,timeout=0.6";
    ]

(* -- Plan: outcome purity ------------------------------------------- *)

let test_outcome_deterministic () =
  let plan =
    Result.get_ok (Plan.of_spec "seed=7,compile=0.2,timeout=0.2,noise=0.3")
  in
  for attempt = 0 to 4 do
    check_bool "pure function of (seed, key, attempt)" true
      (Plan.outcome plan ~key:"some-config" ~attempt
      = Plan.outcome plan ~key:"some-config" ~attempt)
  done;
  check_bool "rate 0 is always Sound" true
    (List.for_all
       (fun attempt -> Plan.outcome Plan.zero ~key:"k" ~attempt = Plan.Sound)
       [ 0; 1; 2; 3 ]);
  let certain = { Plan.zero with compile_error = 1.0 } in
  check_bool "rate 1 always faults" true
    (List.for_all
       (fun attempt ->
         Plan.outcome certain ~key:"k" ~attempt = Plan.Fault Resilience.Compile_error)
       [ 0; 1; 2 ]);
  Alcotest.check_raises "negative attempt"
    (Invalid_argument "Plan.outcome: attempt must be >= 0") (fun () ->
      ignore (Plan.outcome certain ~key:"k" ~attempt:(-1)))

let test_noise_factors () =
  let plan = { Plan.zero with noise = 1.0; jitter = 0.2 } in
  let a = Plan.noise_factors plan ~key:"k" ~attempt:0 ~count:5 in
  let b = Plan.noise_factors plan ~key:"k" ~attempt:0 ~count:5 in
  check_bool "deterministic" true (a = b);
  check_int "count honoured" 5 (List.length a);
  check_bool "non-negative" true (List.for_all (fun f -> f >= 0.) a);
  let flat = { plan with jitter = 0. } in
  check_bool "jitter 0 leaves the timing exact" true
    (List.for_all (Float.equal 1.0)
       (Plan.noise_factors flat ~key:"k" ~attempt:0 ~count:3))

(* -- Resilience: the attempt loop on a scripted source --------------

   The source replays a fixed list of per-attempt outcomes; the loop
   must ask for exactly as many attempts as the policy allows, wait
   b * 2^k before retry k, count under the caller's prefix, and stop
   at the first non-retryable fault. *)

let scripted outcomes =
  let asked = ref [] in
  let source ~attempt =
    asked := attempt :: !asked;
    List.nth outcomes attempt
  in
  (source, fun () -> List.rev !asked)

let fail ?(retryable = true) fault = Error { Resilience.fault; retryable }

let traced_counters f =
  Ft_obs.Trace.enable (Ft_obs.Trace.Sink.make ignore);
  Fun.protect ~finally:Ft_obs.Trace.close (fun () ->
      let result = f () in
      (result, Ft_obs.Trace.counters ()))

let run_scripted ?policy outcomes =
  let source, asked = scripted outcomes in
  let waits = ref [] in
  let result, counters =
    traced_counters (fun () ->
        Resilience.run ?policy ~prefix:"src"
          ~wait:(fun s -> waits := s :: !waits)
          source)
  in
  (result, asked (), List.rev !waits, counters)

let check_counters = Alcotest.(check (list (pair string int)))

let test_loop_retries_then_succeeds () =
  let policy = { Resilience.max_retries = 3; backoff_s = 0.25 } in
  let result, asked, waits, counters =
    run_scripted ~policy
      [ fail (Resilience.Timeout 2.); fail Resilience.Runtime_crash; Ok 42 ]
  in
  check_bool "third attempt's value" true (result = Ok 42);
  Alcotest.(check (list int)) "attempts 0, 1, 2" [ 0; 1; 2 ] asked;
  Alcotest.(check (list (float 0.))) "waits b * 2^k" [ 0.25; 0.5 ] waits;
  check_counters "per-kind and retry counters under the prefix"
    [ ("src.retry", 2); ("src.runtime_crash", 1); ("src.timeout", 1) ]
    counters

let test_loop_exhausts_retries () =
  let result, asked, waits, counters =
    run_scripted (List.init 3 (fun _ -> fail Resilience.Compile_error))
  in
  check_bool "quarantine note" true
    (result = Error "quarantined: compile_error after 3 attempts");
  check_int "default policy: 3 attempts" 3 (List.length asked);
  Alcotest.(check (list (float 0.))) "default backoff" [ 0.05; 0.1 ] waits;
  check_counters "counters"
    [ ("src.compile_error", 3); ("src.quarantined", 1); ("src.retry", 2) ]
    counters

let test_loop_non_retryable () =
  let result, asked, waits, counters =
    run_scripted [ fail ~retryable:false (Resilience.Crashed Sys.sigsegv); Ok 1 ]
  in
  check_bool "quarantined at once" true
    (result = Error "quarantined: crashed (SIGSEGV) after 1 attempt");
  Alcotest.(check (list int)) "one attempt" [ 0 ] asked;
  check_int "no wait" 0 (List.length waits);
  check_counters "no retry counted"
    [ ("src.crashed", 1); ("src.quarantined", 1) ]
    counters

let test_loop_zero_retries () =
  let policy = { Resilience.max_retries = 0; backoff_s = 1. } in
  let result, asked, waits, _ =
    run_scripted ~policy [ fail (Resilience.Protocol_error "torn"); Ok 1 ]
  in
  check_bool "quarantined" true (Result.is_error result);
  Alcotest.(check (list int)) "a single attempt" [ 0 ] asked;
  check_int "no wait" 0 (List.length waits);
  let result, asked, _, _ = run_scripted ~policy [ Ok 7 ] in
  check_bool "success passes through" true (result = Ok 7);
  Alcotest.(check (list int)) "still one attempt" [ 0 ] asked

(* -- Evaluator: retry / quarantine clock math -----------------------

   The constants below mirror Evaluator's cost model: failed compile
   0.1 s, compile 0.3 s, host overhead 0.05 s, 3 kernel runs per
   measurement, and Resilience.run's default policy: max_retries = 2 (3
   attempts) with backoff 0.05 * 2^attempt. *)

let evaluator_with ?n_parallel plan =
  let space = gemm_space () in
  let e =
    Ft_explore.Evaluator.create ?n_parallel ~faults:plan space
  in
  (space, e)

let test_quarantine_clock_math () =
  let space, e = evaluator_with { Plan.zero with compile_error = 1.0 } in
  let cfg = Space.default_config space in
  let value = Ft_explore.Evaluator.measure e cfg in
  check_clock "quarantined value is 0" 0. value;
  (* 3 failed compiles at 0.1 plus backoffs 0.05 + 0.10. *)
  check_clock "whole retry sequence charged" 0.45 (Ft_explore.Evaluator.clock e);
  check_int "one eval" 1 (Ft_explore.Evaluator.n_evals e);
  (match Ft_explore.Evaluator.peek e cfg with
  | Some (_, perf) ->
      check_bool "quarantined perf is invalid" false perf.Ft_hw.Perf.valid;
      check_bool "note names the kind and attempts" true
        (Ft_hw.Perf.note perf = "quarantined: compile_error after 3 attempts")
  | None -> Alcotest.fail "quarantined entry must be cached");
  (* Quarantine is permanent: re-measuring is a cache hit, never a
     fresh attempt sequence. *)
  let clock = Ft_explore.Evaluator.clock e in
  let again = Ft_explore.Evaluator.measure e cfg in
  check_clock "still 0" 0. again;
  check_int "no remeasure" 1 (Ft_explore.Evaluator.n_evals e);
  check_clock "only a cache-hit charge" (clock +. 0.0005)
    (Ft_explore.Evaluator.clock e)

let test_timeout_clock_math () =
  let space, e = evaluator_with { Plan.zero with timeout = 1.0 } in
  ignore (Ft_explore.Evaluator.measure e (Space.default_config space));
  (* 3 timed-out kernels at compile + host + 1.0 cap, plus backoffs. *)
  check_clock "lane occupied to the cap each attempt"
    ((3. *. (0.3 +. 0.05 +. 1.0)) +. 0.15)
    (Ft_explore.Evaluator.clock e)

let test_noisy_median_jitter_zero () =
  let space, clean = evaluator_with Plan.zero in
  let _, noisy = evaluator_with { Plan.zero with noise = 1.0; jitter = 0. } in
  let cfg = Space.default_config space in
  let v_clean = Ft_explore.Evaluator.measure clean cfg in
  let v_noisy = Ft_explore.Evaluator.measure noisy cfg in
  check_bool "jitter 0: median of repeats = the true value" true
    (Float.equal v_clean v_noisy);
  check_bool "repeats cost more than one measurement" true
    (Ft_explore.Evaluator.clock noisy > Ft_explore.Evaluator.clock clean)

let test_lane_degradation () =
  let space, e =
    evaluator_with ~n_parallel:4 { Plan.zero with lane_death = 1.0 }
  in
  let live = ref [] in
  Ft_obs.Trace.enable
    (Ft_obs.Trace.Sink.make (fun (r : Ft_obs.Trace.record) ->
         match (r.name, r.fields) with
         | "pool.lane_dead", [ ("live", Ft_obs.Trace.Int n) ] -> live := n :: !live
         | _ -> ()));
  Fun.protect ~finally:Ft_obs.Trace.close (fun () ->
      ignore (Ft_explore.Evaluator.measure e (Space.default_config space)));
  (* 3 attempts, each killing a lane: 4 -> 3 -> 2 -> 1. *)
  Alcotest.(check (list int)) "one lane lost per attempt" [ 3; 2; 1 ] (List.rev !live);
  let _, again =
    evaluator_with ~n_parallel:2 { Plan.zero with lane_death = 1.0 }
  in
  live := [];
  Ft_obs.Trace.enable
    (Ft_obs.Trace.Sink.make (fun (r : Ft_obs.Trace.record) ->
         match (r.name, r.fields) with
         | "pool.lane_dead", [ ("live", Ft_obs.Trace.Int n) ] -> live := n :: !live
         | _ -> ()));
  Fun.protect ~finally:Ft_obs.Trace.close (fun () ->
      ignore (Ft_explore.Evaluator.measure again (Space.default_config space)));
  Alcotest.(check (list int)) "floored at one lane" [ 1; 1; 1 ] (List.rev !live)

let test_model_query_immune () =
  (* An FPGA space: every point is an analytical-model query. *)
  let space = Space.make (Ft_ir.Operators.gemm ~m:64 ~n:64 ~k:64) Target.vu9p in
  let plan = { Plan.zero with compile_error = 1.0 } in
  let e = Ft_explore.Evaluator.create ~faults:plan space in
  let clean = Ft_explore.Evaluator.create space in
  let cfg = Space.default_config space in
  check_bool "model queries never fault" true
    (Float.equal
       (Ft_explore.Evaluator.measure clean cfg)
       (Ft_explore.Evaluator.measure e cfg));
  check_clock "model-query cost unchanged"
    (Ft_explore.Evaluator.clock clean)
    (Ft_explore.Evaluator.clock e)

let test_all_quarantined_run_fails () =
  let space, e = evaluator_with { Plan.zero with compile_error = 1.0 } in
  let state = Ft_explore.Driver.init e [ Space.default_config space ] in
  let result = Ft_explore.Driver.finish ~method_name:"test" state in
  check_bool "all-quarantined run is not a success" false
    (Ft_explore.Driver.succeeded result)

(* -- searches under faults ------------------------------------------ *)

let methods = Ft_explore.Method.all

let result_fingerprint (r : Ft_explore.Driver.result) =
  ( Config.compute_key r.best_config,
    r.best_value,
    r.n_evals,
    r.sim_time_s,
    List.map
      (fun (s : Ft_explore.Driver.sample) -> (s.at_s, s.n_evals, s.best_value))
      r.history )

let run_method (m : Ft_explore.Method.t) ~seed ?(n_parallel = 1)
    ?(faults = Plan.zero) ?checkpoint_path space =
  m.search
    {
      Ft_explore.Search_loop.default_params with
      seed;
      n_trials = 6;
      max_evals = Some 80;
      n_parallel;
      faults;
      checkpoint_path;
    }
    space

(* Rate 0 with the whole fault layer *installed* — a zero plan handed
   to the evaluator, a checkpoint trail being written — must be
   bit-for-bit the plain run: same best, same clock, same eval
   counts. *)
let test_zero_fault_invisible =
  let space = gemm_space () in
  QCheck.Test.make ~count:6 ~name:"rate-0 faults + checkpointing invisible"
    QCheck.(pair (int_bound 9999) (int_bound (List.length methods - 1)))
    (fun (seed, which) ->
      let m = List.nth methods which in
      let reference = result_fingerprint (run_method m ~seed space) in
      let path = temp_ck () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let got =
            result_fingerprint
              (run_method m ~seed space ~faults:Plan.zero ~checkpoint_path:path)
          in
          if got <> reference then
            QCheck.Test.fail_reportf "%s: rate-0 fault layer visible (seed %d)"
              m.name seed
          else true))

(* A faulty run must stay a pure function of its seeds: rerunning it
   replays every fault, retry and wave charge bit for bit. *)
let test_faulty_run_replays =
  let space = gemm_space () in
  let faults =
    Result.get_ok (Plan.of_spec "seed=7,rate=0.3,lane=0.05,noise=0.2")
  in
  QCheck.Test.make ~count:6 ~name:"faulty searches replay bit-for-bit"
    QCheck.(pair (int_bound 9999) (int_bound (List.length methods - 1)))
    (fun (seed, which) ->
      let m = List.nth methods which in
      let run () =
        result_fingerprint (run_method m ~seed ~n_parallel:3 ~faults space)
      in
      let reference = run () in
      if run () <> reference then
        QCheck.Test.fail_reportf "%s diverged on rerun (seed %d)" m.name seed
      else true)

(* -- crash / resume ------------------------------------------------- *)

let crash_params ~path =
  {
    Ft_explore.Search_loop.default_params with
    seed = 11;
    n_trials = 14;
    faults = { Plan.zero with crash_at_trial = Some 6 };
    checkpoint_path = Some path;
  }

let test_crash_then_resume () =
  let space = gemm_space () in
  let m = Ft_explore.Method.find_exn "Q-method" in
  let path = temp_ck () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match m.search (crash_params ~path) space with
      | _ -> Alcotest.fail "expected the injected crash"
      | exception Plan.Injected_crash trial ->
          check_bool "crashed at or after the requested trial" true (trial >= 6));
      let run_id =
        Ft_explore.Search_loop.run_id ~method_name:"Q-method"
          (crash_params ~path) space
      in
      let ck =
        match Ft_store.Checkpoint.latest ~run_id path with
        | Some ck, _ -> ck
        | None, _ -> Alcotest.fail "crash must leave a matching checkpoint"
      in
      check_bool "checkpoint covers the crash point" true (ck.trial >= 6);
      (* Corrupt the trail the way a crash mid-append would: a torn
         final line, plus outright garbage.  Resume must skip both. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "plain garbage\n";
      output_string oc "{\"run\":\"torn";
      close_out oc;
      let resumed =
        m.search { (crash_params ~path) with resume = true } space
      in
      check_bool "resumed best >= checkpointed best" true
        (resumed.best_value >= ck.best_value);
      check_bool "resumed run completed" true
        (Ft_explore.Driver.succeeded resumed);
      (* The crash fires only when the trial counter first crosses N
         from below; the resumed leg starts at ck.trial >= 6 and must
         run to completion without re-crashing (no exception above). *)
      let latest_after =
        match Ft_store.Checkpoint.latest ~run_id path with
        | Some ck, _ -> ck.trial
        | None, _ -> Alcotest.fail "resumed run must checkpoint too"
      in
      check_bool "resumed run advanced the trail" true
        (latest_after > ck.trial))

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "ft_fault"
    [
      ( "spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_spec_rejects;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "deterministic" `Quick test_outcome_deterministic;
          Alcotest.test_case "noise factors" `Quick test_noise_factors;
        ] );
      ( "loop",
        [
          Alcotest.test_case "retries then succeeds" `Quick
            test_loop_retries_then_succeeds;
          Alcotest.test_case "exhausts retries" `Quick test_loop_exhausts_retries;
          Alcotest.test_case "non-retryable quarantines" `Quick
            test_loop_non_retryable;
          Alcotest.test_case "zero retries" `Quick test_loop_zero_retries;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "quarantine clock math" `Quick
            test_quarantine_clock_math;
          Alcotest.test_case "timeout clock math" `Quick test_timeout_clock_math;
          Alcotest.test_case "noisy median" `Quick test_noisy_median_jitter_zero;
          Alcotest.test_case "lane degradation" `Quick test_lane_degradation;
          Alcotest.test_case "model queries immune" `Quick test_model_query_immune;
          Alcotest.test_case "all-quarantined fails" `Quick
            test_all_quarantined_run_fails;
        ] );
      ( "invariants",
        [
          qcheck test_zero_fault_invisible;
          qcheck test_faulty_run_replays;
        ] );
      ( "resume", [ Alcotest.test_case "crash then resume" `Quick test_crash_then_resume ] );
    ]
