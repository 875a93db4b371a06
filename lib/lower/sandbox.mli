(** Process-isolated measurement: crash containment for compiled-kernel
    timing (DESIGN.md §11).

    {!Measure.run} executes the kernel in-process, so a pathological
    schedule — a miscompiled nest that spins, a padded buffer that
    exhausts memory, a genuine segfault — takes the whole tuner down
    with it.  Each process keeps one long-lived worker:
    the first [Sandbox.run] re-executes the running image
    ([Unix.create_process], legal beside live domains), and this
    module's initialisation turns it into a worker that serves every
    later request too.  Per request it re-arms [rlimit] address-space
    and CPU caps, times the kernel, and answers with one
    {!Ft_store.Protocol} frame over a pipe.  The parent waits under a
    monotonic watchdog ({!Ft_util.Monotime}) and SIGKILLs on expiry.
    Every failure mode maps to a structured {!Ft_fault.Resilience.fault}
    instead of an exception, signal, or hang in the tuner, and retires
    the worker, so the next request runs on a fresh one; the worker
    is also reaped when the process exits.

    Isolation never touches the search: measurement runs strictly
    post-search behind the [measurer] hook, so seeded searches are
    bit-for-bit identical with the sandbox on, off, or absent. *)

type limits = {
  timeout_s : float;  (** wall-clock watchdog (SIGKILL on expiry) *)
  mem_mb : int option;  (** RLIMIT_AS cap in MiB; [None] = unlimited *)
}

(** [max_int / 1048576]: the largest [mem_mb] whose byte count fits
    in an [int]. *)
val max_mem_mb : int

(** Deterministic fault injection for the containment tests and
    [bench sandbox]: executed in the worker instead of the kernel.
    [Hang] sleeps forever (watchdog path); [Segv] dereferences null;
    [Oom_hog] allocates until the rlimit fails; [Garbage] writes an
    unparsable frame; [Truncated] writes a frame that ends mid-
    payload; [Silent] exits 0 without writing. *)
type chaos = Hang | Segv | Oom_hog | Garbage | Truncated | Silent

val chaos_to_string : chaos -> string

(** [run space cfg] measures [cfg] in the process's worker, spawning
    it if there is none or it died while idle (same inputs, warm-up
    and [reps] as {!Measure.run}; calls from several threads or
    domains take turns), and returns the worker's result, or the fault
    that contained it: [Timeout] (watchdog SIGKILL, or the RLIMIT_CPU
    backstop), [Crashed] (any other signal), [Oom] (address-space
    cap), [Protocol_error] (garbage, truncated or missing frame,
    nonzero exit) or [Launch_failed] (no pipe or process could be
    created, or the request did not fit its pipe; every descriptor is
    closed again).  Every fault retires the worker.  [Ok] can itself
    be an invalid perf (e.g. a config outside the space) — a result,
    not a containment event, and the worker stays.  [limits] defaults
    to 10 s and 4096 MiB, generous enough that well-behaved kernels
    never trip them; they apply to this request alone.  [chaos]
    injects a worker-side fault (tests). *)
val run :
  ?limits:limits ->
  ?chaos:chaos ->
  ?reps:int ->
  Ft_schedule.Space.t ->
  Ft_schedule.Config.t ->
  (Ft_hw.Perf.t, Ft_fault.Resilience.fault) result

(** [measurer space] is an {!Ft_explore.Evaluator.measurer}-shaped
    hook: a pre-flight static guard, then {!run} as a
    {!Ft_fault.Resilience} fault source under [limits] (default as in
    {!run}) and [policy] (default that of {!Ft_fault.Resilience.run}).

    The pre-flight guard rejects obviously-doomed configs without a
    request to the worker.  It rejects a watchdog timeout that is not positive
    (including [nan]) and a [mem_mb] outside [1 .. max_mem_mb], then
    checks (1) estimated buffer bytes (8 bytes x the shape product of
    every graph input and program alloc) against half the
    address-space cap, (2) [Loopnest.total_iterations] against the
    watchdog (at an optimistic 1 ns per leaf statement the nest cannot
    finish in time), and (3) the estimated unroll expansion against
    1024x {!Compile.max_unrolled_stmts}.
    [Timeout] and [Protocol_error] are retried with backoff (real
    sleeps); [Crashed], [Oom] and [Launch_failed] — and exhausted
    retries — quarantine the config: later measurements of it return
    the cached invalid perf without a request.  Faults come back as
    [Ft_hw.Perf.invalid] with a ["sandbox: quarantined: ..."] note
    (preflight rejections as ["preflight: ..."]).  Trace counters:
    [measure.sandboxed] (requests), [measure.spawn] (workers spawned,
    also by direct {!run} calls), one per fault kind ([measure.timeout],
    [measure.crashed], [measure.oom], [measure.protocol_error],
    [measure.launch_failed]), [measure.preflight], [measure.retry],
    [measure.quarantined], [measure.quarantine_hit].

    [chaos] selects injected faults per config; when absent, the
    [FT_SANDBOX_CHAOS] environment variable (a {!chaos} name,
    optionally [:SUBSTR] to match against the serialized config) is
    the CI test hook. *)
val measurer :
  ?limits:limits ->
  ?policy:Ft_fault.Resilience.policy ->
  ?chaos:(Ft_schedule.Config.t -> chaos option) ->
  ?reps:int ->
  Ft_schedule.Space.t ->
  Ft_schedule.Config.t ->
  Ft_hw.Perf.t
