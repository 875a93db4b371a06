(* Process-isolated measurement (DESIGN.md §11).

   Layout: [run] forks; the child caps itself with setrlimit, measures
   through the ordinary [Measure.run], and reports exactly one
   length-prefixed JSON frame on a pipe before [Unix._exit] (never the
   parent's at_exit handlers, never its buffered channels).  The
   parent polls [waitpid WNOHANG] on a monotonic deadline, SIGKILLs on
   expiry, and maps every way the child can die — signal, rlimit, bad
   frame, silence — to a structured {!Ft_fault.Resilience.fault}.

   OCaml 5.1 refuses [Unix.fork] once any other domain has ever been
   spawned in the process (joined or not): [run] then reports
   [Launch_failed] instead of raising.  Systhreads are safe: the
   forking thread holds the runtime lock, and the child touches no
   lock another thread could have held. *)

module R = Ft_fault.Resilience

type limits = { timeout_s : float; mem_mb : int option }

let default_limits = { timeout_s = 10.; mem_mb = Some 4096 }

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

(* resource 0 = RLIMIT_AS (bytes), 1 = RLIMIT_CPU (seconds) *)
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

let numel shape = List.fold_left ( * ) 1 shape

(* Graph inputs plus program allocs cover every float64 buffer the
   child will materialize. *)
let estimated_bytes (space : Ft_schedule.Space.t)
    (program : Loopnest.program) =
  let bytes (_, shape) = 8 * numel shape in
  List.fold_left
    (fun acc b -> acc + bytes b)
    0
    (space.graph.Ft_ir.Op.inputs @ program.Loopnest.allocs)

let preflight ?(limits = default_limits) (space : Ft_schedule.Space.t) cfg =
  if not (Ft_schedule.Space.valid space cfg) then
    Error "config outside the schedule space"
  else
    let program = Lowering.lower space cfg in
    let est_bytes = estimated_bytes space program in
    let byte_cap =
      (* half the cap: the child also carries the tuner's inherited
         footprint and the executor's working set *)
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
         the watchdog — forking would only buy a guaranteed SIGKILL *)
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
      else Ok program

(* ---------------------------------------------------------------- *)
(* Child side                                                       *)

module J = Ft_store.Json

let obj fields = J.Obj fields

(* One frame, then _exit: at_exit handlers and buffered channels
   belong to the parent. *)
let child_exit oc json =
  (try Ft_store.Protocol.write_frame oc (Ft_store.Json.to_string json)
   with Sys_error _ | Unix.Unix_error _ -> ());
  Unix._exit 0

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
  | Oom_hog -> (
      try
        let rec hog acc = hog (Array.make (8 * 1024 * 1024) 0. :: acc) in
        ignore (hog [] : float array list);
        Unix._exit 0
      with Out_of_memory -> child_exit oc (obj [ ("status", J.Str "oom") ]))
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

let child_main ~limits ~chaos ~seed ~warmup ~reps space cfg write_fd =
  let oc = Unix.out_channel_of_descr write_fd in
  (try
     (match limits.mem_mb with
      | Some mb -> setrlimit 0 (mb * 1024 * 1024)
      | None -> ());
     (* CPU backstop well above the wall-clock watchdog: the parent's
        SIGKILL is the primary kill, this survives a dead parent *)
     setrlimit 1 ((2 * int_of_float (Float.ceil limits.timeout_s)) + 1)
   with Failure _ -> ());
  (match chaos with Some c -> run_chaos oc c | None -> ());
  match Measure.run ~seed ~warmup ~reps space cfg with
  | (perf : Ft_hw.Perf.t) -> (
      match perf.Ft_hw.Perf.source with
      | Ft_hw.Perf.Measured { reps; min_ns } when perf.Ft_hw.Perf.valid ->
          child_exit oc
            (obj
               [
                 ("status", J.Str "ok");
                 ("time_s", J.Num perf.Ft_hw.Perf.time_s);
                 ("min_ns", J.Num min_ns);
                 ("reps", J.Num (float_of_int reps));
                 ("note", J.Str perf.Ft_hw.Perf.note);
               ])
      | Ft_hw.Perf.Measured _ | Ft_hw.Perf.Analytical ->
          child_exit oc
            (obj
               [ ("status", J.Str "invalid"); ("note", J.Str perf.Ft_hw.Perf.note) ]))
  | exception Out_of_memory -> child_exit oc (obj [ ("status", J.Str "oom") ])
  | exception e ->
      child_exit oc
        (obj
           [ ("status", J.Str "invalid"); ("note", J.Str (Printexc.to_string e)) ])

(* ---------------------------------------------------------------- *)
(* Parent side                                                      *)

let poll_interval_s = 0.005

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
               (Option.value (str "note") ~default:"child reported invalid"))
      | Some "oom" -> Error R.Oom
      | Some other -> Error (R.Protocol_error ("unknown status " ^ other))
      | None -> Error (R.Protocol_error "frame missing status"))

let run ?(limits = default_limits) ?chaos ?(seed = 2020) ?(warmup = 1)
    ?(reps = 5) ?on_tick (space : Ft_schedule.Space.t) cfg =
  let r, w = Unix.pipe ~cloexec:false () in
  (* anything buffered would otherwise be written twice — once per
     process *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | exception ((Failure _ | Unix.Unix_error _) as e) ->
      Unix.close r;
      Unix.close w;
      Error
        (R.Launch_failed
           (match e with Failure msg -> msg | e -> Printexc.to_string e))
  | 0 ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      child_main ~limits ~chaos ~seed ~warmup ~reps space cfg w
  | pid ->
      (try Unix.close w with Unix.Unix_error _ -> ());
      let ic = Unix.in_channel_of_descr r in
      let deadline = Ft_util.Monotime.now_s () +. limits.timeout_s in
      let rec wait killed =
        (match on_tick with Some f -> f () | None -> ());
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if (not killed) && Ft_util.Monotime.now_s () > deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              wait true
            end
            else begin
              Unix.sleepf poll_interval_s;
              wait killed
            end
        | _, status -> (killed, status)
      in
      let killed, status = wait false in
      let result =
        if killed then Error (R.Timeout limits.timeout_s)
        else
          match status with
          | Unix.WSIGNALED s when s = Sys.sigxcpu ->
              (* rlimit CPU backstop: a spin is a timeout, not a crash *)
              Error (R.Timeout limits.timeout_s)
          | Unix.WSIGNALED s -> Error (R.Crashed s)
          | Unix.WSTOPPED s -> Error (R.Crashed s)
          | Unix.WEXITED 0 -> (
              match Ft_store.Protocol.read_frame ic with
              | Error msg -> Error (R.Protocol_error msg)
              | Ok payload ->
                  parse_frame ~flops:(Ft_ir.Op.flops space.node) payload)
          | Unix.WEXITED n ->
              Error (R.Protocol_error (Printf.sprintf "child exited %d" n))
      in
      close_in_noerr ic;
      result

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
   address-space overrun or a refused fork will recur and quarantine
   at once.  Backoff waits are real sleeps. *)
let measurer ?limits ?policy ?chaos ?seed ?warmup ?reps ?on_tick space =
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
          let perf = Ft_hw.Perf.invalid note in
          Hashtbl.replace quarantined key perf;
          perf
        in
        match preflight ~limits space cfg with
        | Error reason ->
            Ft_obs.Trace.incr "measure.preflight";
            quarantine ("preflight: " ^ reason)
        | Ok _ -> (
            let chaos =
              match chaos with Some f -> f cfg | None -> chaos_from_env key
            in
            let attempt ~attempt:_ =
              Ft_obs.Trace.incr "measure.sandboxed";
              match run ~limits ?chaos ?seed ?warmup ?reps ?on_tick space cfg with
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
