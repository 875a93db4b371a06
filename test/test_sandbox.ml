(* The process-isolated measurement sandbox (DESIGN.md §11): the
   monotonic clock, every containment path (watchdog SIGKILL, real
   segfault, rlimit OOM, garbage / truncated / missing result frames,
   a full descriptor table), the long-lived worker (one spawn for many
   measurements, a fresh worker after every fault or an idle death,
   per-request rlimits), measuring beside live domains,
   the pre-flight static guard, retry-then-quarantine resilience, the
   agreement of sandboxed and in-process measurement on well-behaved
   kernels, and the bit-for-bit invariance of seeded searches to the
   sandbox being on, off, or absent. *)

open Ft_lower
module Monotime = Ft_util.Monotime
module R = Ft_fault.Resilience

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let from_measurement (perf : Ft_hw.Perf.t) =
  match perf.source with Measured _ -> true | Analytical -> false

(* The one target we can actually run on: the host CPU driving the
   compiled scalar executor (same spec as `bench model`). *)
let host =
  Ft_schedule.Target.Cpu
    {
      Ft_schedule.Target.cpu_name = "host-interp";
      cores = 1;
      clock_ghz = 0.025;
      vector_width = 1;
      fma_units = 1;
      l1_kb = 32;
      l2_kb = 1024;
      l3_mb = 32;
      mem_bw_gb = 10.;
      l2_bw_gb = 40.;
      l1_bw_gb = 100.;
    }

let space_of ?(m = 16) ?(n = 16) ?(k = 16) () =
  Ft_schedule.Space.make (Ft_ir.Operators.gemm ~m ~n ~k) host

let tiny = { Sandbox.timeout_s = 5.; mem_mb = Some 2048 }

let counter name =
  Option.value (List.assoc_opt name (Ft_obs.Trace.counters ())) ~default:0

let with_trace f =
  Ft_obs.Trace.enable (Ft_obs.Trace.Sink.make (fun _ -> ()));
  Fun.protect ~finally:Ft_obs.Trace.close f

(* The pre-flight guard runs first in [measurer]: a rejection is an
   invalid perf noted "preflight: <reason>", counted, and spawns no
   worker; an accepted config goes on to a sandboxed measurement. *)
let preflight ~limits space cfg =
  with_trace (fun () ->
      let perf = Sandbox.measurer ~limits space cfg in
      let note = Ft_hw.Perf.note perf in
      let prefix = "preflight: " in
      if String.starts_with ~prefix note then begin
        check_int "preflight counted" 1 (counter "measure.preflight");
        check_int "no launch" 0 (counter "measure.sandboxed");
        Error (String.sub note (String.length prefix) (String.length note - String.length prefix))
      end
      else begin
        check_int "no preflight rejection" 0 (counter "measure.preflight");
        Ok perf
      end)

(* --- monotonic clock --- *)

let test_monotime_monotonic () =
  let t0 = Monotime.now_s () in
  let prev = ref t0 in
  for _ = 1 to 1000 do
    let t = Monotime.now_s () in
    check_bool "never steps backwards" true (t >= !prev);
    prev := t
  done;
  Unix.sleepf 0.01;
  check_bool "elapsed_s sees the sleep" true (Monotime.elapsed_s t0 >= 0.009)

(* --- the happy path --- *)

let test_sandbox_ok () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  match Sandbox.run ~limits:tiny ~reps:2 space cfg with
  | Ok perf ->
      check_bool "valid" true perf.Ft_hw.Perf.valid;
      check_bool "measured provenance" true (from_measurement perf);
      check_bool "positive gflops" true (perf.Ft_hw.Perf.gflops > 0.)
  | Error fault -> Alcotest.fail (R.to_string fault)

(* An invalid config is a result, not a containment event. *)
let test_sandbox_invalid_config () =
  let space = space_of () in
  let big = space_of ~m:64 ~n:64 ~k:64 () in
  let foreign = Ft_schedule.Space.default_config big in
  if Ft_schedule.Space.valid space foreign then ()
  else
    match Sandbox.run ~limits:tiny space foreign with
    | Ok perf ->
        check_bool "invalid result" false perf.Ft_hw.Perf.valid;
        check_bool "analytical provenance" false (from_measurement perf)
    | Error fault ->
        Alcotest.fail
          ("invalid config must not be a fault: "
          ^ R.to_string fault)

(* Sandboxed and in-process measurement agree on well-behaved kernels:
   same validity, provenance, note, and rep count (wall clocks differ,
   of course). *)
let qcheck_agreement =
  QCheck.Test.make ~name:"sandboxed == in-process on well-behaved kernels"
    ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let space = space_of () in
      let rng = Ft_util.Rng.create seed in
      let rec draw attempts =
        let cfg = Ft_schedule.Space.random_config rng space in
        if Ft_schedule.Space.valid space cfg || attempts >= 50 then cfg
        else draw (attempts + 1)
      in
      let cfg = draw 0 in
      let inproc = Measure.run ~reps:2 space cfg in
      match Sandbox.run ~limits:tiny ~reps:2 space cfg with
      | Error fault -> QCheck.Test.fail_report (R.to_string fault)
      | Ok sandboxed ->
          sandboxed.Ft_hw.Perf.valid = inproc.Ft_hw.Perf.valid
          && String.equal (Ft_hw.Perf.note sandboxed) (Ft_hw.Perf.note inproc)
          && (match
                (sandboxed.Ft_hw.Perf.source, inproc.Ft_hw.Perf.source)
              with
             | ( Ft_hw.Perf.Measured { reps = r1; _ },
                 Ft_hw.Perf.Measured { reps = r2; _ } ) -> r1 = r2
             | Ft_hw.Perf.Analytical, Ft_hw.Perf.Analytical -> true
             | _ -> false))

(* --- containment paths --- *)

let contained chaos limits =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  Sandbox.run ~limits ~chaos space cfg

let test_contains_hang () =
  match contained Sandbox.Hang { tiny with Sandbox.timeout_s = 0.3 } with
  | Error (R.Timeout s) ->
      check_bool "reports the watchdog budget" true (s = 0.3)
  | Error fault -> Alcotest.fail ("expected Timeout, got " ^ R.to_string fault)
  | Ok _ -> Alcotest.fail "a hung child cannot produce a result"

let test_contains_segv () =
  match contained Sandbox.Segv tiny with
  | Error (R.Crashed s) ->
      check_int "killed by SIGSEGV" Sys.sigsegv s
  | Error fault -> Alcotest.fail ("expected Crashed, got " ^ R.to_string fault)
  | Ok _ -> Alcotest.fail "a segfaulted child cannot produce a result"

let test_contains_oom () =
  (* A tight cap and a roomy watchdog: the hog must hit RLIMIT_AS well
     before the deadline even on a loaded machine (the full runtest
     runs every suite in parallel). *)
  match
    contained Sandbox.Oom_hog { Sandbox.timeout_s = 30.; mem_mb = Some 512 }
  with
  | Error R.Oom -> ()
  | Error fault -> Alcotest.fail ("expected Oom, got " ^ R.to_string fault)
  | Ok _ -> Alcotest.fail "an OOM'd child cannot produce a result"

let expect_protocol_error name chaos =
  match contained chaos tiny with
  | Error (R.Protocol_error _) -> ()
  | Error fault ->
      Alcotest.fail
        (name ^ ": expected Protocol_error, got "
        ^ R.to_string fault)
  | Ok _ -> Alcotest.fail (name ^ ": cannot produce a result")

let test_contains_bad_frames () =
  expect_protocol_error "garbage" Sandbox.Garbage;
  expect_protocol_error "truncated" Sandbox.Truncated;
  expect_protocol_error "silent exit 0" Sandbox.Silent

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A [Silent] request ends the live worker, which the sandbox then
   retires; afterwards no worker and none of its descriptors remain. *)
let retire_worker () =
  let space = space_of () in
  match
    Sandbox.run ~limits:tiny ~chaos:Sandbox.Silent space
      (Ft_schedule.Space.default_config space)
  with
  | Error (R.Protocol_error _) -> ()
  | Error fault -> Alcotest.fail ("silent request: " ^ R.to_string fault)
  | Ok _ -> Alcotest.fail "a silent worker cannot produce a result"

(* With the descriptor table full, or too full for both pipes, a launch
   is a structured [Launch_failed] — never an escaping [Unix_error] —
   and every descriptor it opened is closed again. *)
let with_fd_table_full ~spare f =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let rec fill acc =
    match Unix.dup ~cloexec:true null with
    | fd -> fill (fd :: acc)
    | exception Unix.Unix_error (Unix.EMFILE, _, _) -> acc
  in
  let held = ref (fill []) in
  for _ = 1 to spare do
    match !held with
    | fd :: rest ->
        Unix.close fd;
        held := rest
    | [] -> ()
  done;
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close (null :: !held))
    f

let test_contains_full_fd_table () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  (* a live worker needs no new descriptor, so retire it first *)
  retire_worker ();
  let before = open_fds () in
  List.iter
    (fun spare ->
      let run, perf =
        with_fd_table_full ~spare (fun () ->
            let run = Sandbox.run ~limits:tiny space cfg in
            (run, Sandbox.measurer ~limits:tiny space cfg))
      in
      (match run with
      | Error (R.Launch_failed _) -> ()
      | Error fault ->
          Alcotest.fail ("expected Launch_failed, got " ^ R.to_string fault)
      | Ok _ -> Alcotest.fail "no pipe can be created");
      check_bool "quarantined launch_failed perf" true
        ((not perf.Ft_hw.Perf.valid)
        && String.starts_with ~prefix:"sandbox: quarantined: launch_failed ("
             (Ft_hw.Perf.note perf));
      check_int
        (Printf.sprintf "no descriptor leaked (%d spare)" spare)
        before (open_fds ()))
    [ 0; 2 ]

(* --- pre-flight guard --- *)

let test_preflight_rejects_huge_buffers () =
  let space = space_of ~m:256 ~n:256 ~k:256 () in
  let cfg = Ft_schedule.Space.default_config space in
  (* 3 x 256^2 x 8 bytes = 1.5 MiB of buffers against a 1 MiB cap *)
  match preflight ~limits:{ Sandbox.timeout_s = 5.; mem_mb = Some 1 } space cfg with
  | Error reason -> check_bool "names the cap" true
        (String.length reason > 0)
  | Ok _ -> Alcotest.fail "expected a buffer-bytes rejection"

let test_preflight_rejects_undersized_watchdog () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  match preflight ~limits:{ Sandbox.timeout_s = 1e-7; mem_mb = None } space cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an iteration-count rejection"

(* A cap whose byte count overflows an int used to wrap around in
   both the buffer check and the worker's setrlimit; a cap below 1 MiB
   is no cap at all.  Both are refused by name, and the largest
   representable cap is accepted. *)
let test_preflight_rejects_out_of_range_caps () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  let preflight mem_mb =
    preflight ~limits:{ tiny with Sandbox.mem_mb = Some mem_mb } space cfg
  in
  List.iter
    (fun mem_mb ->
      match preflight mem_mb with
      | Error reason ->
          check_bool
            (Printf.sprintf "%d MiB: %S names the cap" mem_mb reason)
            true
            (String.starts_with ~prefix:"address-space cap" reason)
      | Ok _ -> Alcotest.failf "%d MiB accepted" mem_mb)
    [ 0; -1; 99_999_999_999_999; Sandbox.max_mem_mb + 1; max_int ];
  check_bool "largest cap accepted" true (Result.is_ok (preflight Sandbox.max_mem_mb))

let test_preflight_accepts_sane_configs () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  match preflight ~limits:tiny space cfg with
  | Ok perf -> check_bool "measured" true perf.Ft_hw.Perf.valid
  | Error reason -> Alcotest.fail ("sane config rejected: " ^ reason)

(* --- resilience: counters, retries, quarantine --- *)

let test_deterministic_crash_quarantines () =
  with_trace (fun () ->
      let space = space_of () in
      let cfg = Ft_schedule.Space.default_config space in
      let measure =
        Sandbox.measurer ~limits:tiny
          ~policy:{ R.max_retries = 2; backoff_s = 0.01 }
          ~chaos:(fun _ -> Some Sandbox.Segv)
          space
      in
      let first = measure cfg in
      check_bool "crash becomes an invalid perf" false
        first.Ft_hw.Perf.valid;
      check_bool "note carries the structured reason" true
        (String.length (Ft_hw.Perf.note first) > 0);
      check_int "one launch: deterministic faults never retry" 1
        (counter "measure.sandboxed");
      check_int "counted as crashed" 1 (counter "measure.crashed");
      check_int "quarantined" 1 (counter "measure.quarantined");
      let second = measure cfg in
      check_bool "served from quarantine" true
        (String.equal (Ft_hw.Perf.note second) (Ft_hw.Perf.note first));
      check_int "no second launch" 1 (counter "measure.sandboxed");
      check_int "quarantine hit counted" 1 (counter "measure.quarantine_hit"))

let test_transient_timeout_retries () =
  with_trace (fun () ->
      let space = space_of () in
      let cfg = Ft_schedule.Space.default_config space in
      let measure =
        Sandbox.measurer
          ~limits:{ tiny with Sandbox.timeout_s = 0.2 }
          ~policy:{ R.max_retries = 1; backoff_s = 0.01 }
          ~chaos:(fun _ -> Some Sandbox.Hang)
          space
      in
      let perf = measure cfg in
      check_bool "timed out measurement is invalid" false
        perf.Ft_hw.Perf.valid;
      check_int "original + one retry" 2 (counter "measure.sandboxed");
      check_int "both attempts timed out" 2 (counter "measure.timeout");
      check_int "one retry" 1 (counter "measure.retry");
      check_int "then quarantined" 1 (counter "measure.quarantined"))

let test_preflight_rejection_quarantines () =
  with_trace (fun () ->
      let space = space_of ~m:256 ~n:256 ~k:256 () in
      let cfg = Ft_schedule.Space.default_config space in
      let measure =
        Sandbox.measurer
          ~limits:{ Sandbox.timeout_s = 5.; mem_mb = Some 1 }
          space
      in
      let perf = measure cfg in
      check_bool "rejected before spawning" false perf.Ft_hw.Perf.valid;
      check_bool "preflight-prefixed note" true
        (String.length (Ft_hw.Perf.note perf) >= 10
        && String.equal (String.sub (Ft_hw.Perf.note perf) 0 10) "preflight:");
      check_int "no launch" 0 (counter "measure.sandboxed");
      ignore (measure cfg);
      check_int "second call is a quarantine hit" 1
        (counter "measure.quarantine_hit"))

(* A nan watchdog compares false against any iteration estimate;
   preflight must still refuse it, or every attempt spawns a worker
   whose select fails and the winner is quarantined after retries. *)
let test_non_positive_timeout_never_spawns () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  List.iter
    (fun timeout_s ->
      let limits = { tiny with Sandbox.timeout_s } in
      match preflight ~limits space cfg with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "timeout %g accepted" timeout_s))
    [ Float.nan; 0.; -1. ];
  with_trace (fun () ->
      let measure =
        Sandbox.measurer
          ~limits:{ tiny with Sandbox.timeout_s = Float.nan }
          space
      in
      let perf = measure cfg in
      check_bool "nan timeout is an invalid perf" false perf.Ft_hw.Perf.valid;
      check_int "one preflight rejection" 1 (counter "measure.preflight");
      check_int "no launch" 0 (counter "measure.sandboxed");
      check_int "no retry" 0 (counter "measure.retry"))

(* --- measuring beside live domains --- *)

(* Run [f] while a second domain is alive, parked on a condition
   variable until [f] returns. *)
let with_live_domain f =
  let mutex = Mutex.create () and wake = Condition.create () in
  let started = Atomic.make false and stop = ref false in
  let domain =
    Domain.spawn (fun () ->
        Mutex.lock mutex;
        Atomic.set started true;
        while not !stop do
          Condition.wait wake mutex
        done;
        Mutex.unlock mutex)
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock mutex;
      stop := true;
      Condition.signal wake;
      Mutex.unlock mutex;
      Domain.join domain)
    (fun () ->
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      f ())

(* OCaml 5 refuses fork once a second domain exists; a spawned worker
   does not care.  Measuring beside a live domain must yield a real
   timing; the live worker's descriptors must not grow from one
   measurement to the next, and once it is retired every descriptor
   is closed and no child is left unreaped. *)
let test_measure_beside_live_domain () =
  with_live_domain (fun () ->
      let space = space_of () in
      let cfg = Ft_schedule.Space.default_config space in
      retire_worker ();
      let before = open_fds () in
      (match Sandbox.run ~limits:tiny ~reps:2 space cfg with
      | Ok perf ->
          check_bool "valid" true perf.Ft_hw.Perf.valid;
          check_bool "measured provenance" true (from_measurement perf)
      | Error fault -> Alcotest.fail (R.to_string fault));
      let perf =
        with_trace (fun () ->
            let perf = Sandbox.measurer ~limits:tiny ~reps:2 space cfg in
            check_int "one launch" 1 (counter "measure.sandboxed");
            check_int "no fault" 0 (counter "measure.quarantined");
            perf)
      in
      check_bool "measurer perf is measured" true
        (perf.Ft_hw.Perf.valid && from_measurement perf);
      let second = open_fds () in
      for _ = 3 to 8 do
        ignore (Sandbox.measurer ~limits:tiny ~reps:2 space cfg : Ft_hw.Perf.t)
      done;
      check_int "no descriptor leaked between measurements" second (open_fds ());
      retire_worker ();
      check_int "no descriptor leaked once retired" before (open_fds ());
      check_bool "no child left unreaped" true
        (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
        | _ -> false
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true))

(* --- the long-lived worker --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The fields of /proc/PID/stat after the command name: state first,
   then ppid, ..., utime and stime at 11 and 12 (in 1/100 s). *)
let proc_stat pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex stat ')' + 2 in
  Array.of_list (String.split_on_char ' ' (String.sub stat after (String.length stat - after)))

(* The live worker: this process's one child running the sentinel. *)
let worker_pid () =
  let me = string_of_int (Unix.getpid ()) in
  let workers =
    Sys.readdir "/proc" |> Array.to_list
    |> List.filter_map (fun entry ->
           match int_of_string_opt entry with
           | None -> None
           | Some pid -> (
               try
                 if
                   (proc_stat pid).(1) = me
                   && List.mem "--flextensor-sandbox-worker"
                        (String.split_on_char '\000'
                           (read_file (Printf.sprintf "/proc/%d/cmdline" pid)))
                 then Some pid
                 else None
               with Sys_error _ | Not_found | Invalid_argument _ -> None))
  in
  match workers with
  | [ pid ] -> pid
  | pids -> Alcotest.failf "expected one live worker, found %d" (List.length pids)

let expect_ok name = function
  | Ok (perf : Ft_hw.Perf.t) ->
      check_bool (name ^ ": valid") true (perf.valid && from_measurement perf)
  | Error fault -> Alcotest.fail (name ^ ": " ^ R.to_string fault)

(* [measure.sandboxed] counts requests, [measure.spawn] workers. *)
let test_one_worker_serves_many () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  retire_worker ();
  with_trace (fun () ->
      let measure = Sandbox.measurer ~limits:tiny ~reps:2 space in
      for i = 1 to 6 do
        let perf = measure cfg in
        check_bool (Printf.sprintf "measurement %d valid" i) true
          (perf.Ft_hw.Perf.valid && from_measurement perf)
      done;
      expect_ok "direct run" (Sandbox.run ~limits:tiny ~reps:2 space cfg);
      check_int "six requests through the measurer" 6 (counter "measure.sandboxed");
      check_int "one worker" 1 (counter "measure.spawn"))

(* A fault retires the worker that met it: the next well-behaved
   measurement runs on a fresh one, for every injected kind. *)
let test_fresh_worker_after_each_fault () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  List.iter
    (fun (chaos, limits) ->
      let name = Sandbox.chaos_to_string chaos in
      expect_ok (name ^ ": warm-up") (Sandbox.run ~limits:tiny ~reps:2 space cfg);
      with_trace (fun () ->
          (match Sandbox.run ~limits ~chaos space cfg with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail (name ^ ": an injected fault cannot succeed"));
          check_int (name ^ ": faulted on the live worker") 0 (counter "measure.spawn");
          expect_ok (name ^ ": next") (Sandbox.run ~limits:tiny ~reps:2 space cfg);
          check_int (name ^ ": on a fresh worker") 1 (counter "measure.spawn")))
    [
      (Sandbox.Hang, { tiny with Sandbox.timeout_s = 0.3 });
      (Sandbox.Segv, tiny);
      (Sandbox.Oom_hog, { Sandbox.timeout_s = 30.; mem_mb = Some 512 });
      (Sandbox.Garbage, tiny);
      (Sandbox.Truncated, tiny);
      (Sandbox.Silent, tiny);
    ]

(* A worker killed between requests is found dead and replaced: the
   tuner neither takes SIGPIPE nor sees a fault. *)
let test_worker_killed_while_idle () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  expect_ok "warm-up" (Sandbox.run ~limits:tiny ~reps:2 space cfg);
  let pid = worker_pid () in
  Unix.kill pid Sys.sigkill;
  let deadline = Monotime.now_s () +. 5. in
  while (proc_stat pid).(0) <> "Z" && Monotime.now_s () < deadline do
    Unix.sleepf 0.001
  done;
  with_trace (fun () ->
      expect_ok "after the kill" (Sandbox.run ~limits:tiny ~reps:2 space cfg);
      check_int "on a fresh worker" 1 (counter "measure.spawn"));
  check_bool "the killed worker was reaped" true
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true)

(* RLIMIT_CPU is a per-request backstop (2 x 1 s + 1 s here) on top of
   what the worker has already spent: requests whose CPU sums past it,
   and past the first request's whole limit (at most 1 s + 3 s), all
   succeed on the one worker. *)
let test_cpu_backstop_is_per_request () =
  let space = space_of ~m:64 ~n:64 ~k:64 () in
  let cfg = Ft_schedule.Space.default_config space in
  let limits = { tiny with Sandbox.timeout_s = 1. } in
  retire_worker ();
  let give_up = Monotime.now_s () +. 120. in
  with_trace (fun () ->
      let rec go n =
        expect_ok (Printf.sprintf "request %d" n) (Sandbox.run ~limits ~reps:50 space cfg);
        let stat = proc_stat (worker_pid ()) in
        let cpu_s = float_of_int (int_of_string stat.(11) + int_of_string stat.(12)) /. 100. in
        if cpu_s <= 4.5 then
          if Monotime.now_s () < give_up then go (n + 1)
          else Alcotest.fail "worker CPU never passed the backstop"
      in
      go 1;
      check_int "one worker" 1 (counter "measure.spawn"))

(* The worker's soft and hard address-space limits, as
   /proc/PID/limits prints them ("unlimited" or bytes). *)
let as_limits () =
  read_file (Printf.sprintf "/proc/%d/limits" (worker_pid ()))
  |> String.split_on_char '\n'
  |> List.find (String.starts_with ~prefix:"Max address space")
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")
  |> fun words -> (List.nth words 3, List.nth words 4)

(* The address-space cap is re-armed per request, downwards and up
   again: the live worker's soft limit follows each request's cap, a
   512 MiB hog right after a 4096 MiB measurement is contained, and
   the default cap holds again for the request after it. *)
let test_tight_cap_after_default () =
  let space = space_of () in
  let cfg = Ft_schedule.Space.default_config space in
  let mib n = string_of_int (n * 1024 * 1024) in
  expect_ok "default cap" (Sandbox.run ~reps:2 space cfg);
  Alcotest.(check string) "4096 MiB armed" (mib 4096) (fst (as_limits ()));
  expect_ok "1024 MiB cap" (Sandbox.run ~limits:{ tiny with Sandbox.mem_mb = Some 1024 } ~reps:2 space cfg);
  Alcotest.(check string) "1024 MiB armed" (mib 1024) (fst (as_limits ()));
  expect_ok "no cap" (Sandbox.run ~limits:{ tiny with Sandbox.mem_mb = None } ~reps:2 space cfg);
  (let soft, hard = as_limits () in
   Alcotest.(check string) "lifted to the hard limit" hard soft);
  expect_ok "default cap" (Sandbox.run ~reps:2 space cfg);
  (match
     Sandbox.run ~limits:{ Sandbox.timeout_s = 30.; mem_mb = Some 512 }
       ~chaos:Sandbox.Oom_hog space cfg
   with
  | Error R.Oom -> ()
  | Error fault -> Alcotest.fail ("expected Oom, got " ^ R.to_string fault)
  | Ok _ -> Alcotest.fail "an OOM'd worker cannot produce a result");
  expect_ok "default cap again" (Sandbox.run ~reps:2 space cfg)

(* --- seeded searches are invariant to the sandbox --- *)

let qcheck_search_invariant_to_sandbox =
  QCheck.Test.make
    ~name:"seeded search is bit-for-bit invariant to sandbox on/off/absent"
    ~count:4
    QCheck.(pair (int_range 0 1000) (oneofl [ "Q-method"; "random" ]))
    (fun (seed, search) ->
      let graph = Ft_ir.Operators.gemm ~m:32 ~n:32 ~k:32 in
      let options =
        { Flextensor.default_options with seed; n_trials = 4; search }
      in
      let space = Ft_schedule.Space.make graph host in
      let optimize measurer =
        Flextensor.optimize ~options ?measurer graph host
      in
      let bare = optimize None in
      let inproc =
        optimize (Some (fun cfg -> Measure.run ~reps:1 space cfg))
      in
      let sandboxed =
        optimize (Some (Sandbox.measurer ~limits:tiny ~reps:1 space))
      in
      let bits_equal a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let same (a : Flextensor.report) (b : Flextensor.report) =
        Ft_schedule.Config.equal a.Flextensor.config b.Flextensor.config
        && bits_equal a.perf_value b.perf_value
        && bits_equal a.sim_time_s b.sim_time_s
        && a.n_evals = b.n_evals
      in
      same bare inproc && same bare sandboxed
      && (match (inproc.Flextensor.measured, sandboxed.Flextensor.measured) with
         | Some m1, Some m2 ->
             m1.Ft_hw.Perf.valid && m2.Ft_hw.Perf.valid
             && String.equal (Ft_hw.Perf.note m1) (Ft_hw.Perf.note m2)
         | _ -> false))

let () =
  Alcotest.run "ft_sandbox"
    [
      ( "monotime",
        [ Alcotest.test_case "monotonic" `Quick test_monotime_monotonic ] );
      ( "sandbox",
        [
          Alcotest.test_case "well-behaved kernel" `Quick test_sandbox_ok;
          Alcotest.test_case "invalid config is a result" `Quick
            test_sandbox_invalid_config;
          QCheck_alcotest.to_alcotest qcheck_agreement;
        ] );
      ( "containment",
        [
          Alcotest.test_case "hang -> Timeout" `Quick test_contains_hang;
          Alcotest.test_case "segfault -> Crashed" `Quick test_contains_segv;
          Alcotest.test_case "rlimit -> Oom" `Quick test_contains_oom;
          Alcotest.test_case "bad frames -> Protocol_error" `Quick
            test_contains_bad_frames;
          Alcotest.test_case "full fd table -> Launch_failed" `Quick
            test_contains_full_fd_table;
        ] );
      ( "preflight",
        [
          Alcotest.test_case "rejects huge buffers" `Quick
            test_preflight_rejects_huge_buffers;
          Alcotest.test_case "rejects undersized watchdog" `Quick
            test_preflight_rejects_undersized_watchdog;
          Alcotest.test_case "accepts sane configs" `Quick
            test_preflight_accepts_sane_configs;
          Alcotest.test_case "rejects out-of-range caps" `Quick
            test_preflight_rejects_out_of_range_caps;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "deterministic crash quarantines" `Quick
            test_deterministic_crash_quarantines;
          Alcotest.test_case "transient timeout retries" `Quick
            test_transient_timeout_retries;
          Alcotest.test_case "preflight rejection quarantines" `Quick
            test_preflight_rejection_quarantines;
          Alcotest.test_case "non-positive timeout never spawns" `Quick
            test_non_positive_timeout_never_spawns;
        ] );
      ( "worker",
        [
          Alcotest.test_case "one worker serves many measurements" `Quick
            test_one_worker_serves_many;
          Alcotest.test_case "fresh worker after each fault" `Quick
            test_fresh_worker_after_each_fault;
          Alcotest.test_case "worker killed while idle" `Quick
            test_worker_killed_while_idle;
          Alcotest.test_case "CPU backstop is per request" `Quick
            test_cpu_backstop_is_per_request;
          Alcotest.test_case "tight cap after the default" `Quick
            test_tight_cap_after_default;
        ] );
      ( "domains",
        [
          Alcotest.test_case "measure beside a live pool" `Quick
            test_measure_beside_live_domain;
        ] );
      ( "invariance",
        [ QCheck_alcotest.to_alcotest qcheck_search_invariant_to_sandbox ] );
    ]
