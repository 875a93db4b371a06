(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the framework draws from an explicit
    [Rng.t] so that searches, tests and benches are reproducible from a
    seed. *)

type t

(** [create seed] builds a generator whose stream is a pure function of
    [seed]. *)
val create : int -> t

(** Raw generator state, for persisting a search checkpoint.  After
    [set_state t (state t')], [t] replays [t']'s future stream
    exactly. *)
val state : t -> int64

val set_state : t -> int64 -> unit

(** [int t bound] is uniform in [0, bound) — bias-free via rejection
    sampling, so a draw may consume more than one raw 64-bit value.
    Raises [Invalid_argument] when [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

val bool : t -> bool

(** [split t] derives a new independent generator, advancing [t]. *)
val split : t -> t

(** [mix seed i] is a well-distributed seed for the [i]-th independent
    stream of [seed] — a pure function of both, so a draw keyed by
    [(seed, i)] (a fault-plan outcome, a benchmark's job list) never
    depends on how many draws came before it.  Raises
    [Invalid_argument] when [i < 0]. *)
val mix : int -> int -> int

(** [stream seed i] is [create (mix seed i)]. *)
val stream : int -> int -> t

(** Uniform choice. Raises [Invalid_argument] on an empty container. *)
val choose : t -> 'a list -> 'a

val choose_array : t -> 'a array -> 'a

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** Standard normal sample (Box-Muller). *)
val gaussian : t -> float
