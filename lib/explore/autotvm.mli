(** AutoTVM baseline (§6.5): template-restricted tuning knobs, a
    gradient-boosted-tree cost model, simulated-annealing candidate
    proposal and batched measurements.

    Two template generations are provided: [`Divisor] models mature
    mainline templates (full divisor-split knobs), [`Paper_era] models
    the 2019 templates the paper actually compared against (no virtual
    threading, snapped power-of-two knobs, fixed unrolling) — see the
    comment in the implementation and EXPERIMENTS.md. *)

type template = [ `Divisor | `Paper_era ]

(** Size of the template's knob space (for the §6.5 space-ratio
    comparison). Default [`Divisor]. *)
val template_size : ?template:template -> Ft_schedule.Space.t -> float

(** The search behind {!Method}'s AutoTVM ([`Divisor] templates)
    and AutoTVM-2019 ([`Paper_era]) rows: [params.n_trials] is the
    round count, each round scoring 128 proposals and measuring the
    best 8.  H is seeded with 8 random template instantiations (never
    the schedule-space heuristics), then any [params.transfer_seeds]. *)
val policy : template -> Search_loop.policy
