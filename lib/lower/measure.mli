(** Wall-clock measurement of scheduled configs via the compiled
    executor ({!Compile}).

    Measurement never participates in a search: it runs once on a
    finished (or explicitly sampled) config and returns a
    {!Ft_hw.Perf.t} tagged [Measured], so seeded analytical searches
    stay bit-for-bit reproducible. *)

(** [run space cfg] lowers and compiles [cfg], binds random inputs
    (seed 2020), runs one untimed execution, then times [reps]
    (default 5) repetitions; the result's [time_s] is the median rep
    and the provenance carries the fastest rep.  Invalid configs yield
    [Perf.invalid] without executing. *)
val run : ?reps:int -> Ft_schedule.Space.t -> Ft_schedule.Config.t -> Ft_hw.Perf.t

(** One timed run of the tree-walking {!Exec} interpreter on the same
    lowered program and inputs — the compiled executor's speedup
    baseline. *)
val interp_time_s : Ft_schedule.Space.t -> Ft_schedule.Config.t -> float
