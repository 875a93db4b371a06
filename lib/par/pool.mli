(** Fixed-size domain pool for data-parallel map over pure functions.

    The pool owns [jobs - 1] worker domains; the caller's domain is
    lane 0 and participates in every map, so [create 1] spawns nothing
    and runs everything inline.  One map runs at a time per pool
    (maps must not be nested on the same pool).

    Determinism contract: results are placed by input index, so as
    long as the mapped function is pure, the output of [map] is
    independent of the number of lanes and of how chunks land on
    domains.  Randomized tasks should draw from per-task streams
    ([map_seeded]) rather than a shared generator. *)

type t

(** [create jobs] builds a pool with [jobs] lanes ([jobs - 1] spawned
    worker domains).  [jobs] is clamped to at least 1 and — because
    OCaml's stop-the-world minor GC makes domain oversubscription
    catastrophically slow — to at most
    [Domain.recommended_domain_count ()].  [~oversubscribe:true] skips
    the upper clamp for callers that need the exact domain count (the
    pool-size determinism tests). *)
val create : ?oversubscribe:bool -> int -> t

(** Number of lanes (worker domains + the calling domain). *)
val lanes : t -> int

(** Stop and join the worker domains.  The pool must not be used
    afterwards.  Idempotent. *)
val shutdown : t -> unit

(** Resolved lane count for the process-wide default pool:
    [set_default_jobs] wins, else the [FT_JOBS] environment variable,
    else [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** Override the default-pool size (the CLI [-j] flag).  If the
    default pool already exists with a different size it is shut down
    and recreated on next use. *)
val set_default_jobs : int -> unit

(** The process-wide shared pool, created lazily with
    [default_jobs ()] lanes. *)
val default : unit -> t

(** Shut down the default pool (if any) and join its worker domains;
    the next [default ()] recreates it.  Idempotent; results of later
    maps are unchanged (only domain spawn cost is paid again).  Kept
    only because [benchmark/kit/child.ml] calls it. *)
val quiesce_default : unit -> unit

(** [map pool f xs] is [List.map f xs] computed on the pool's lanes in
    contiguous chunks.  Chunk size is amortized against an EWMA of the
    measured per-task cost (one grab of the shared work counter should
    cover ~0.2 ms of work); it affects scheduling only, never results.
    The result preserves input order.  If any
    application of [f] raised, the exception of the smallest-index
    failing task is re-raised (with its backtrace) after all tasks
    have finished. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Like [map] but captures per-task exceptions instead of
    re-raising, each with the backtrace of the raise site — re-raise
    with [Printexc.raise_with_backtrace] to preserve it. *)
val try_map :
  t -> ('a -> 'b) -> 'a list -> ('b, exn * Printexc.raw_backtrace) result list

(** [map_seeded pool ~seed f xs] maps with a deterministic splitmix
    RNG per task: task [i] receives [Ft_util.Rng.stream seed i], so
    the output is a pure function of [seed] and [xs] — identical for
    every pool size. *)
val map_seeded :
  t -> seed:int -> (Ft_util.Rng.t -> 'a -> 'b) -> 'a list -> 'b list
