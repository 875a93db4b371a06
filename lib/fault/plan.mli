(** Deterministic fault injection for schedule measurement.

    A plan assigns seeded probabilities to the failure kinds real
    tuning harnesses defend against (AutoTVM / Ansor measurement
    errors).  The outcome of every measurement attempt is a pure
    function of [(plan seed, config key, attempt number)] — never of
    commit order or wall-clock — so faulty runs replay
    bit-for-bit and the {!Resilience} loop that absorbs them in
    {!Ft_explore.Evaluator} can be tested deterministically.

    A plan with every rate at 0 and no [crash_at_trial] is inert: the
    evaluator bypasses the fault path entirely and results are
    bit-for-bit identical to a fault-free build (DESIGN.md §11). *)

(** Seconds a simulated hung kernel runs before its watchdog kills it
    (1.0): the payload of every injected [Timeout]. *)
val timeout_cap_s : float

type t = {
  seed : int;  (** fault stream seed — independent of the search seed *)
  compile_error : float;  (** per-attempt probability of each kind… *)
  timeout : float;
  runtime_crash : float;
  lane_death : float;
  noise : float;
  jitter : float;  (** relative sd of one noisy repeat (default 0.1) *)
  crash_at_trial : int option;
      (** crash the whole search after trial N ({!Injected_crash}) —
          exercises checkpoint / resume *)
}

(** All rates 0, jitter 0.1, no crash: injects nothing. *)
val zero : t

(** True when any measurement-level rate is positive. *)
val injects_measurement_faults : t -> bool

(** Raised by the search loop when [crash_at_trial] fires; carries the
    trial index reached.  A checkpoint is written first, so the run
    can be resumed. *)
exception Injected_crash of int

(** One attempt's draw: [Noisy] succeeds with a jittered timing
    ({!noise_factors}); a [Fault] is one of [Compile_error],
    [Timeout timeout_cap_s], [Runtime_crash] or [Lane_death]. *)
type outcome = Sound | Noisy | Fault of Resilience.fault

(** [outcome p ~key ~attempt] resolves attempt [attempt] (0-based) of
    measuring the config with cache key [key]: a pure function of
    [(p.seed, key, attempt)].  Raises [Invalid_argument] when
    [attempt < 0]. *)
val outcome : t -> key:string -> attempt:int -> outcome

(** Deterministic multiplicative factors ([1 + jitter·N(0,1)], clamped
    non-negative) for the [count] repeats of a noisy measurement —
    drawn from a stream independent of {!outcome}'s.  Raises
    [Invalid_argument] when [count < 1]. *)
val noise_factors : t -> key:string -> attempt:int -> count:int -> float list

(** Parse a comma-separated [key=value] spec, e.g.
    ["seed=7,compile_error=0.1,timeout=0.05,noise=0.2,jitter=0.1"].
    Keys: [seed], [compile_error]/[compile], [timeout],
    [runtime_crash]/[crash], [lane_death]/[lane], [noise], [jitter],
    [crash_at_trial]/[crash_at], and the shorthand [rate] (splits one
    hard-failure rate evenly over compile / timeout / crash).  Unknown
    keys, unparsable values, rates outside [0, 1], and a rate sum
    above 1 are errors — a mistyped spec never silently runs
    faultless. *)
val of_spec : string -> (t, string) result

(** Render a plan back to a spec {!of_spec} accepts ([of_spec (to_spec
    p)] = [Ok p]). *)
val to_spec : t -> string
