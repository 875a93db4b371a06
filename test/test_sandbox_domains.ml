(* Measuring after the process has spawned a second domain.  OCaml 5.1
   refuses [Unix.fork] from then on, so the sandbox must turn the
   refusal into a structured invalid perf — never an exception — that
   is not retried, and it must close both ends of its result pipe.

   This is its own executable: once a domain has been spawned, no later
   test in the same process could fork either. *)

module R = Ft_fault.Resilience

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let counter name =
  Option.value (List.assoc_opt name (Ft_obs.Trace.counters ())) ~default:0

let test_measure_beside_live_pool () =
  let pool = Ft_par.Pool.create ~oversubscribe:true 2 in
  Fun.protect
    ~finally:(fun () -> Ft_par.Pool.shutdown pool)
    (fun () ->
      check_int "a second domain is live" 2 (Ft_par.Pool.lanes pool);
      let space =
        Ft_schedule.Space.make
          (Ft_ir.Operators.gemm ~m:16 ~n:16 ~k:16)
          Ft_schedule.Target.xeon_e5_2699_v4
      in
      let cfg = Ft_schedule.Space.default_config space in
      let before = open_fds () in
      (match Ft_lower.Sandbox.run space cfg with
      | Error (R.Launch_failed _) -> ()
      | Error fault -> Alcotest.fail ("expected Launch_failed, got " ^ R.to_string fault)
      | Ok _ -> Alcotest.fail "fork cannot succeed beside a live domain");
      Ft_obs.Trace.enable (Ft_obs.Trace.Sink.make ignore);
      let perf =
        Fun.protect ~finally:Ft_obs.Trace.close (fun () ->
            let perf = Ft_lower.Sandbox.measurer space cfg in
            check_int "one launch, never retried" 1 (counter "measure.sandboxed");
            check_int "counted by kind" 1 (counter "measure.launch_failed");
            check_int "no retry" 0 (counter "measure.retry");
            check_int "quarantined" 1 (counter "measure.quarantined");
            perf)
      in
      check_int "no descriptor leaked" before (open_fds ());
      check_bool "structured invalid perf" false perf.Ft_hw.Perf.valid;
      check_bool "sandbox note names the refusal" true
        (String.starts_with ~prefix:"sandbox: quarantined: launch_failed ("
           perf.Ft_hw.Perf.note))

let () =
  Alcotest.run "ft_sandbox_domains"
    [
      ( "fork refused",
        [
          Alcotest.test_case "measure beside a live pool" `Quick
            test_measure_beside_live_pool;
        ] );
    ]
