(* Process-isolated measurement (DESIGN.md §11).

   Layout: each process keeps at most one worker, spawned by the first
   [run] that finds none: [Unix.create_process] (posix_spawn: legal
   beside live domains, where fork is not) re-executes the running
   image, and the worker hook at the bottom of this module serves
   Marshal'ed requests from its stdin pipe until EOF.  Per request it
   re-arms its setrlimit caps, measures through the ordinary
   [Measure.run], and answers with one length-prefixed JSON frame on
   its stdout pipe.  The parent [select]s on that pipe for one frame
   under a monotonic deadline and maps every way a request can fail —
   watchdog, signal, rlimit, bad frame, silence — to a structured
   {!Ft_fault.Resilience.fault}.  Any fault retires the worker
   (SIGKILL, reap, close), so no request ever runs in a worker that
   has already failed; the next request spawns a fresh one. *)

module R = Ft_fault.Resilience

type limits = { timeout_s : float; mem_mb : int option }

let default_limits = { timeout_s = 10.; mem_mb = Some 4096 }

(* The largest cap whose byte count fits in an int. *)
let max_mem_mb = max_int / (1024 * 1024)

type chaos = Hang | Segv | Oom_hog | Garbage | Truncated | Silent

let chaos_to_string = function
  | Hang -> "hang"
  | Segv -> "segv"
  | Oom_hog -> "oom"
  | Garbage -> "garbage"
  | Truncated -> "truncated"
  | Silent -> "silent"

let chaos_of_string = function
  | "hang" -> Some Hang
  | "segv" -> Some Segv
  | "oom" -> Some Oom_hog
  | "garbage" -> Some Garbage
  | "truncated" -> Some Truncated
  | "silent" -> Some Silent
  | _ -> None

(* Everything the worker needs: it shares no memory with the parent. *)
type request = {
  space : Ft_schedule.Space.t;
  cfg : Ft_schedule.Config.t;
  reps : int;
  limits : limits;
  chaos : chaos option;
}

(* resource 0 = RLIMIT_AS (bytes), 1 = RLIMIT_CPU (seconds); sets the
   soft limit only, and a negative value lifts it to the hard limit *)
external setrlimit : int -> int -> unit = "ft_sandbox_setrlimit"
external raise_segv : unit -> unit = "ft_sandbox_segv"

(* ---------------------------------------------------------------- *)
(* Pre-flight static guard                                          *)

(* Estimated unroll expansion: [Unrolled] extents multiply every
   statement beneath them, which is what [Compile.compile] would
   flatten. *)
let rec unrolled_stmts stmts =
  List.fold_left
    (fun acc stmt ->
      acc
      +
      match stmt with
      | Loopnest.Loop { binding = Loopnest.Unrolled; extent; body; _ } ->
          extent * unrolled_stmts body
      | Loopnest.Loop { body; _ } -> unrolled_stmts body
      | Loopnest.Init _ | Loopnest.Accum _ | Loopnest.Assign _ -> 1)
    0 stmts

(* Graph inputs plus program allocs cover every float64 buffer the
   child will materialize. *)
let estimated_bytes (space : Ft_schedule.Space.t)
    (program : Loopnest.program) =
  let bytes (_, shape) = 8 * Ft_interp.Buffer_env.numel shape in
  List.fold_left
    (fun acc b -> acc + bytes b)
    0
    (space.graph.Ft_ir.Op.inputs @ program.Loopnest.allocs)

let preflight limits (space : Ft_schedule.Space.t) cfg =
  (* nan compares false with everything, so it would slip past the
     iteration check below and reach the watchdog's select *)
  if not (limits.timeout_s > 0.) then
    Error
      (Printf.sprintf "watchdog timeout %g s is not positive" limits.timeout_s)
  else if
    match limits.mem_mb with Some mb -> mb < 1 || mb > max_mem_mb | None -> false
  then
    Error
      (Printf.sprintf "address-space cap %d MiB is outside 1..%d"
         (Option.get limits.mem_mb) max_mem_mb)
  else if not (Ft_schedule.Space.valid space cfg) then
    Error "config outside the schedule space"
  else
    let program = Lowering.lower space cfg in
    let est_bytes = estimated_bytes space program in
    let byte_cap =
      (* half the cap: the worker's own runtime and the executor's
         working set share the address space with the buffers *)
      match limits.mem_mb with
      | Some mb -> mb * 1024 * 1024 / 2
      | None -> max_int
    in
    if est_bytes > byte_cap then
      Error
        (Printf.sprintf "estimated %d MiB of buffers exceeds the %d MiB cap"
           (est_bytes / (1024 * 1024))
           (Option.value limits.mem_mb ~default:0))
    else
      let iterations = Loopnest.total_iterations program.Loopnest.body in
      (* even at 1 ns per leaf statement the nest cannot finish inside
         the watchdog — spawning would only buy a guaranteed SIGKILL *)
      if float_of_int iterations *. 1e-9 > limits.timeout_s then
        Error
          (Printf.sprintf
             "%d leaf iterations cannot finish inside the %.3g s watchdog"
             iterations limits.timeout_s)
      else if
        unrolled_stmts program.Loopnest.body > 1024 * Compile.max_unrolled_stmts
      then
        Error
          (Printf.sprintf
             "unroll expansion beyond %dx the %d-statement cap"
             1024 Compile.max_unrolled_stmts)
      else Ok ()

(* ---------------------------------------------------------------- *)
(* Child side                                                       *)

module J = Ft_store.Json

let obj fields = J.Obj fields

(* One frame per request.  A worker that cannot write has lost its
   parent; it is a copy of the host program, whose at_exit handlers
   must not run. *)
let reply oc json =
  try Ft_store.Protocol.write_frame oc (Ft_store.Json.to_string json)
  with Sys_error _ | Unix.Unix_error _ -> Unix._exit 0

(* Every injected fault ends the worker. *)
let run_chaos oc = function
  | Hang ->
      let rec spin () =
        Unix.sleepf 3600.;
        spin ()
      in
      spin ()
  | Segv ->
      raise_segv ();
      Unix._exit 0
  | Oom_hog ->
      (try
         let rec hog acc = hog (Array.make (8 * 1024 * 1024) 0. :: acc) in
         ignore (hog [] : float array list)
       with Out_of_memory -> reply oc (obj [ ("status", J.Str "oom") ]));
      Unix._exit 0
  | Garbage ->
      output_string oc "these bytes are not a frame\n";
      flush oc;
      Unix._exit 0
  | Truncated ->
      (* a valid length prefix whose payload never arrives *)
      output_string oc "65536\n{\"status\":";
      flush oc;
      Unix._exit 0
  | Silent -> Unix._exit 0

(* This request's caps, as soft limits so that a later request may
   raise them again: the address-space cap (none lifts it), and a CPU
   backstop well above the wall-clock watchdog on top of the CPU this
   worker has already spent.  The parent's SIGKILL is the primary
   kill; the backstop survives a dead parent. *)
let arm limits =
  try
    setrlimit 0 (match limits.mem_mb with Some mb -> mb * 1024 * 1024 | None -> -1);
    let { Unix.tms_utime; tms_stime; _ } = Unix.times () in
    setrlimit 1
      (int_of_float (Float.ceil (tms_utime +. tms_stime))
      + (2 * int_of_float (Float.ceil limits.timeout_s))
      + 1)
  with Failure _ -> ()

let answer oc { space; cfg; reps; limits; chaos } =
  arm limits;
  Option.iter (run_chaos oc) chaos;
  reply oc
    (match Measure.run ~reps space cfg with
    | (perf : Ft_hw.Perf.t) -> (
        match perf.Ft_hw.Perf.source with
        | Ft_hw.Perf.Measured { reps; min_ns } when perf.Ft_hw.Perf.valid ->
            obj
              [
                ("status", J.Str "ok");
                ("time_s", J.Num perf.Ft_hw.Perf.time_s);
                ("min_ns", J.Num min_ns);
                ("reps", J.Num (float_of_int reps));
                ("note", J.Str (Ft_hw.Perf.note perf));
              ]
        | Ft_hw.Perf.Measured _ | Ft_hw.Perf.Analytical ->
            obj [ ("status", J.Str "invalid"); ("note", J.Str (Ft_hw.Perf.note perf)) ])
    | exception Out_of_memory -> obj [ ("status", J.Str "oom") ]
    | exception e ->
        obj [ ("status", J.Str "invalid"); ("note", J.Str (Printexc.to_string e)) ])

(* ---------------------------------------------------------------- *)
(* Parent side                                                      *)

let parse_frame ~flops payload =
  let open Ft_store.Json in
  match of_string payload with
  | Error msg -> Error (R.Protocol_error ("unparsable frame: " ^ msg))
  | Ok json -> (
      let str k = Option.bind (member k json) (fun v -> Result.to_option (to_str v)) in
      let num k = Option.bind (member k json) (fun v -> Result.to_option (to_num v)) in
      let int k = Option.bind (member k json) (fun v -> Result.to_option (to_int v)) in
      match str "status" with
      | Some "ok" -> (
          match (num "time_s", num "min_ns", int "reps", str "note") with
          | Some time_s, Some min_ns, Some reps, Some note ->
              Ok (Ft_hw.Perf.measured ~flops ~time_s ~reps ~min_ns ~note)
          | _ -> Error (R.Protocol_error "incomplete result frame"))
      | Some "invalid" ->
          Ok
            (Ft_hw.Perf.invalid
               (Lazy.from_val (Option.value (str "note") ~default:"child reported invalid")))
      | Some "oom" -> Error R.Oom
      | Some other -> Error (R.Protocol_error ("unknown status " ^ other))
      | None -> Error (R.Protocol_error "frame missing status"))

let decode ~flops output =
  match Ft_store.Protocol.frame_of_string output with
  | Error msg -> Error (R.Protocol_error msg)
  | Ok payload -> parse_frame ~flops payload

(* Protocol, not a user option: the argv that makes the running image
   a worker (see the hook at the bottom of this module). *)
let worker_sentinel = "--flextensor-sandbox-worker"

(* The running image itself, so a binary rebuilt mid-run is never the
   one spawned. *)
let self_exe = "/proc/self/exe"

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

type worker = {
  pid : int;
  requests : Unix.file_descr;  (* write end of the worker's stdin *)
  idle_reader : Unix.file_descr;
      (* our copy of its read end: a request written to a worker that
         died while idle fills the pipe instead of raising SIGPIPE *)
  results : Unix.file_descr;  (* read end of its result pipe *)
}

(* The process's one worker; [lock] serialises every request to it. *)
let live : worker option ref = ref None
let lock = Mutex.create ()

(* Both pipes are close-on-exec, so no other child inherits an end; a
   failure closes every descriptor it opened. *)
let spawn () =
  let opened = ref [] in
  let pipe () =
    let ((r, w) as ends) = Unix.pipe ~cloexec:true () in
    opened := r :: w :: !opened;
    ends
  in
  try
    let req_r, req_w = pipe () in
    let res_r, res_w = pipe () in
    Unix.set_nonblock req_w;
    let argv = [| self_exe; worker_sentinel |] in
    let pid = Unix.create_process self_exe argv req_r res_w Unix.stderr in
    Unix.close res_w;
    Ft_obs.Trace.incr "measure.spawn";
    let w = { pid; requests = req_w; idle_reader = req_r; results = res_r } in
    live := Some w;
    Ok w
  with Unix.Unix_error _ as e ->
    List.iter close_noerr !opened;
    Error (R.Launch_failed (Printexc.to_string e))

(* [None]: already reaped, here or elsewhere. *)
let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

let close_pipes w =
  live := None;
  List.iter close_noerr [ w.requests; w.idle_reader; w.results ]

(* Kill (harmless if it already exited: it stays a zombie until the
   reap), close and reap. *)
let retire w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  close_pipes w;
  ignore (reap w.pid : Unix.process_status option)

(* The live worker, or a fresh one if there is none or it died while
   idle (then already reaped by the check). *)
let acquire () =
  match !live with
  | Some w -> (
      match Unix.waitpid [ Unix.WNOHANG ] w.pid with
      | 0, _ -> Ok w
      | _ | (exception Unix.Unix_error _) ->
          close_pipes w;
          spawn ())
  | None -> spawn ()

(* The worker reads each request whole before answering, so the pipe is
   empty: a request that fits its buffer is written at once, and the
   write end being non-blocking means one that does not never blocks. *)
let send w payload =
  let n = String.length payload in
  match Unix.single_write_substring w.requests payload 0 n with
  | k when k = n -> Ok ()
  | _ | (exception Unix.Unix_error _) ->
      Error (R.Launch_failed (Printf.sprintf "%d-byte request exceeds the pipe buffer" n))

(* Whether [s] holds a whole frame, or a prefix that no further bytes
   can mend. *)
let frame_done s =
  match String.index_opt s '\n' with
  | None -> false
  | Some i -> (
      match int_of_string_opt (String.sub s 0 i) with
      | Some len -> String.length s - i - 1 >= len
      | None -> true)

(* One reply: the bytes of a done frame, everything written before EOF
   (the worker exited mid-request), or the fault that ended the wait
   first. *)
let read_reply fd ~deadline ~timeout_s =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec loop () =
    let left = deadline -. Ft_util.Monotime.now_s () in
    if left <= 0. then `Fault (R.Timeout timeout_s)
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> loop ()
      | _ ->
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          Buffer.add_subbytes buf chunk 0 n;
          if n = 0 then `Eof (Buffer.contents buf)
          else if frame_done (Buffer.contents buf) then `Frame (Buffer.contents buf)
          else loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  try loop ()
  with Unix.Unix_error (e, fn, _) ->
    `Fault (R.Protocol_error (fn ^ ": " ^ Unix.error_message e))

let exchange w payload ~flops ~timeout_s =
  let deadline = Ft_util.Monotime.now_s () +. timeout_s in
  match send w payload with
  | Error _ as launch_failed ->
      retire w;
      launch_failed
  | Ok () -> (
      match read_reply w.results ~deadline ~timeout_s with
      | `Frame output ->
          (* a valid answer, even an invalid perf, keeps the worker *)
          let result = decode ~flops output in
          if Result.is_error result then retire w;
          result
      | `Fault fault ->
          retire w;
          Error fault
      | `Eof output -> (
          (* it exited: reap it without a kill, for its own status *)
          close_pipes w;
          match reap w.pid with
          | Some (Unix.WSIGNALED s) when s = Sys.sigxcpu ->
              (* rlimit CPU backstop: a spin is a timeout, not a crash *)
              Error (R.Timeout timeout_s)
          | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Error (R.Crashed s)
          | Some (Unix.WEXITED n) when n <> 0 ->
              Error (R.Protocol_error (Printf.sprintf "child exited %d" n))
          | Some (Unix.WEXITED _) | None -> decode ~flops output))

let run ?(limits = default_limits) ?chaos ?(reps = 5) (space : Ft_schedule.Space.t)
    cfg =
  let payload = Marshal.to_string ({ space; cfg; reps; limits; chaos } : request) [] in
  Mutex.protect lock (fun () ->
      match acquire () with
      | Error _ as launch_failed -> launch_failed
      | Ok w ->
          exchange w payload ~flops:(Ft_ir.Op.flops space.node)
            ~timeout_s:limits.timeout_s)

(* No worker outlives its parent. *)
let () =
  at_exit (fun () ->
      Mutex.protect lock (fun () -> Option.iter retire !live))

(* ---------------------------------------------------------------- *)
(* The measurer hook: preflight, quarantine table, resilience loop  *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  nn = 0
  ||
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let warned_env_chaos = ref false

(* FT_SANDBOX_CHAOS=KIND[:SUBSTR] — the CI test hook: inject KIND into
   every sandboxed measurement (or only those whose serialized config
   contains SUBSTR). *)
let chaos_from_env key =
  match Sys.getenv_opt "FT_SANDBOX_CHAOS" with
  | None | Some "" -> None
  | Some spec -> (
      let kind, filter =
        match String.index_opt spec ':' with
        | None -> (spec, "")
        | Some i ->
            ( String.sub spec 0 i,
              String.sub spec (i + 1) (String.length spec - i - 1) )
      in
      match chaos_of_string (String.lowercase_ascii (String.trim kind)) with
      | None ->
          if not !warned_env_chaos then begin
            warned_env_chaos := true;
            Printf.eprintf
              "warning: ignoring FT_SANDBOX_CHAOS=%S (expected \
               hang|segv|oom|garbage|truncated|silent[:SUBSTR])\n%!"
              spec
          end;
          None
      | Some c -> if contains key filter then Some c else None)

(* The sandbox as a {!Ft_fault.Resilience} fault source: a hang or a
   torn frame may not recur, so those are retryable; a signal, an
   address-space overrun or a failed launch will recur and quarantine
   at once.  Backoff waits are real sleeps. *)
let measurer ?limits ?policy ?chaos ?reps space =
  let limits = Option.value limits ~default:default_limits in
  let quarantined : (string, Ft_hw.Perf.t) Hashtbl.t = Hashtbl.create 7 in
  fun cfg ->
    let key = Ft_schedule.Config_io.to_string cfg in
    match Hashtbl.find_opt quarantined key with
    | Some perf ->
        Ft_obs.Trace.incr "measure.quarantine_hit";
        perf
    | None -> (
        let quarantine note =
          let perf = Ft_hw.Perf.invalid (Lazy.from_val note) in
          Hashtbl.replace quarantined key perf;
          perf
        in
        match preflight limits space cfg with
        | Error reason ->
            Ft_obs.Trace.incr "measure.preflight";
            quarantine ("preflight: " ^ reason)
        | Ok () -> (
            let chaos =
              match chaos with Some f -> f cfg | None -> chaos_from_env key
            in
            let attempt ~attempt:_ =
              Ft_obs.Trace.incr "measure.sandboxed";
              match run ~limits ?chaos ?reps space cfg with
              | Ok perf -> Ok perf
              | Error fault ->
                  let retryable =
                    match fault with R.Timeout _ | R.Protocol_error _ -> true | _ -> false
                  in
                  Error { R.fault; retryable }
            in
            match R.run ?policy ~prefix:"measure" ~wait:Unix.sleepf attempt with
            | Ok perf -> perf
            | Error note -> quarantine ("sandbox: " ^ note)))

(* ---------------------------------------------------------------- *)
(* Worker hook                                                      *)

(* Runs at module initialisation, before the host program's entry
   point.  Frames go to the stdout pipe; anything else the kernel path
   prints goes to stderr instead of corrupting them. *)
let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = worker_sentinel then begin
    let oc = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
    Unix.dup2 Unix.stderr Unix.stdout;
    let rec serve () =
      match (Marshal.from_channel stdin : request) with
      | request ->
          answer oc request;
          serve ()
      | exception _ -> Unix._exit 0  (* EOF: the parent is done or gone *)
    in
    serve ()
  end
