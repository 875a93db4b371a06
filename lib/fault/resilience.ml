(* The single retry / backoff / quarantine loop behind both fault
   sources: the evaluator's seeded [Plan] and the real measurement
   sandbox.  A source reports each attempt's outcome and whether a
   retry could change it; the caller pays each backoff wait its own way
   (simulated clock or real sleep).  Nothing here branches on which
   source is speaking. *)

type fault =
  | Compile_error
  | Timeout of float
  | Runtime_crash
  | Lane_death
  | Crashed of int
  | Oom
  | Protocol_error of string
  | Launch_failed of string

let kind_name = function
  | Compile_error -> "compile_error"
  | Timeout _ -> "timeout"
  | Runtime_crash -> "runtime_crash"
  | Lane_death -> "lane_death"
  | Crashed _ -> "crashed"
  | Oom -> "oom"
  | Protocol_error _ -> "protocol_error"
  | Launch_failed _ -> "launch_failed"

let signal_name s =
  if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sigill then "SIGILL"
  else Printf.sprintf "signal %d" s

let to_string fault =
  match fault with
  | Crashed s -> Printf.sprintf "crashed (%s)" (signal_name s)
  | Protocol_error msg | Launch_failed msg ->
      Printf.sprintf "%s (%s)" (kind_name fault) msg
  | Compile_error | Timeout _ | Runtime_crash | Lane_death | Oom -> kind_name fault

type policy = { max_retries : int; backoff_s : float }

let default_policy = { max_retries = 2; backoff_s = 0.05 }

type failure = { fault : fault; retryable : bool }

let run ?(policy = default_policy) ~prefix ~wait attempt =
  if policy.max_retries < 0 || policy.backoff_s < 0. then
    invalid_arg "Resilience.run: policy fields must be >= 0";
  let count name = Ft_obs.Trace.incr (prefix ^ "." ^ name) in
  let rec go k =
    match attempt ~attempt:k with
    | Ok _ as ok -> ok
    | Error { fault; retryable } ->
        count (kind_name fault);
        if Ft_obs.Trace.active () then
          Ft_obs.Trace.event (prefix ^ ".fault")
            [ ("fault", Str (to_string fault)); ("attempt", Int k) ];
        if retryable && k < policy.max_retries then begin
          count "retry";
          wait (policy.backoff_s *. (2. ** float_of_int k));
          go (k + 1)
        end
        else begin
          count "quarantined";
          if Ft_obs.Trace.active () then
            Ft_obs.Trace.event (prefix ^ ".quarantine")
              [ ("kind", Str (kind_name fault)); ("attempts", Int (k + 1)) ];
          Error
            (Printf.sprintf "quarantined: %s after %d attempt%s" (to_string fault)
               (k + 1)
               (if k = 0 then "" else "s"))
        end
  in
  go 0
