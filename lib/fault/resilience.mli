(** The one measurement-fault pipeline (DESIGN.md §11): the fault
    taxonomy, the retry policy, the attempt loop with exponential
    backoff, the quarantine decision and its note, and the per-kind /
    [retry] / [quarantined] trace counters.

    Two sources feed it.  {!Plan} injects simulated faults into the
    evaluator; [Ft_lower.Sandbox] reports what really happened to a
    spawned measurement worker.  Each source decides per attempt whether
    a retry could change the outcome, and each caller decides how a
    backoff wait is paid (the simulated clock, or [Unix.sleepf]); the
    loop itself never knows which caller it serves. *)

(** Why one measurement attempt produced no result. *)
type fault =
  | Compile_error  (** code generation / compilation failed (simulated) *)
  | Timeout of float  (** killed by a watchdog after this many seconds *)
  | Runtime_crash  (** the kernel faulted mid-run (simulated) *)
  | Lane_death  (** the measurement device dropped off (simulated) *)
  | Crashed of int  (** the measurement child died of this signal *)
  | Oom  (** the measurement child hit its address-space cap *)
  | Protocol_error of string
      (** the measurement child exited without a well-formed result *)
  | Launch_failed of string  (** the measurement child could not start *)

(** Stable snake_case name of a fault's kind — the counter suffix
    (["compile_error"], ["timeout"], ["runtime_crash"], ["lane_death"],
    ["crashed"], ["oom"], ["protocol_error"], ["launch_failed"]). *)
val kind_name : fault -> string

(** {!kind_name} plus the payload where it explains the failure: the
    signal of [Crashed], the message of [Protocol_error] and
    [Launch_failed]. *)
val to_string : fault -> string

(** Attempts per measurement = [max_retries + 1]; the wait before
    retry [k] (0-based) is [backoff_s *. 2 ** k]. *)
type policy = { max_retries : int; backoff_s : float }

(** 2 retries, 0.05 s base backoff. *)
val default_policy : policy

(** A failed attempt as its source reports it: [retryable] says whether
    another attempt could change the outcome. *)
type failure = { fault : fault; retryable : bool }

(** [run ~prefix ~wait attempt] calls [attempt ~attempt:k] for
    k = 0, 1, … until it returns [Ok], or until a failure is not
    retryable or the retries are spent — then the measurement is
    quarantined and [run] returns [Error note], where the note reads
    ["quarantined: <to_string fault> after <n> attempts"] (["attempt"]
    when n = 1).  Before retry [k] it
    calls [wait (backoff_s *. 2 ** k)].

    Trace output, all under [prefix]: counter [<prefix>.<kind>] and
    event [<prefix>.fault] (fields [fault], [attempt]) per failure,
    [<prefix>.retry] per retry, [<prefix>.quarantined] and event
    [<prefix>.quarantine] (fields [kind], [attempts]) per quarantine.
    Raises [Invalid_argument] on a negative policy field. *)
val run :
  ?policy:policy ->
  prefix:string ->
  wait:(float -> unit) ->
  (attempt:int -> ('a, failure) result) ->
  ('a, string) result
