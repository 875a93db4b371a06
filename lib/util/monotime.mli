(** Monotonic time ([clock_gettime(CLOCK_MONOTONIC)]): the one clock
    behind kernel timing, the sandbox watchdog and trace timestamps.

    Wall-clock time can step backwards or jump under NTP, producing
    negative durations and deadlines that fire early or never; the
    monotonic clock only moves forward.  The epoch is arbitrary
    (typically boot), so only differences are meaningful. *)

val now_s : unit -> float

(** [elapsed_s t0] is [now_s () -. t0]. *)
val elapsed_s : float -> float
