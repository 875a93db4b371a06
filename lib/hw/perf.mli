(** Result of one performance query, tagged with where the number came
    from.

    Provenance keeps measured and simulated results from mixing
    silently: every [t] records whether its time was predicted by an
    analytical model ([Analytical], the default everywhere the search
    runs) or timed on the host ([Measured], carrying the repetition
    count and the fastest single rep).  Searches compare values of one
    provenance only; measured numbers annotate a finished result, they
    never feed back into a seeded analytical search. *)

type provenance =
  | Analytical
  | Measured of { reps : int; min_ns : float }
      (** [reps] timed repetitions after warmup; [time_s] is their
          median, [min_ns] the fastest single rep in nanoseconds. *)

(** The note (bound, occupancy, the limit a schedule broke) is only
    formatted when {!note} reads it: the search queries the models far
    more often than anything reads a note.  An unforced [t] holds a
    closure, so nothing compares, hashes or marshals one. *)
type t = private {
  time_s : float;  (** kernel time; [infinity] when invalid *)
  gflops : float;  (** throughput on the operator's true FLOP count *)
  valid : bool;  (** false when the schedule violates a hard resource limit *)
  lazy_note : string Lazy.t;
  source : provenance;
}

val note : t -> string

(** Invalid results are always [Analytical] — a measurement that ran
    produced a time; one that failed raises instead. *)
val invalid : string Lazy.t -> t

(** An [Analytical] result; invalid when [time_s] is not positive. *)
val make : flops:int -> time_s:float -> note:string Lazy.t -> t

val measured :
  flops:int -> time_s:float -> reps:int -> min_ns:float -> note:string -> t

(** ["analytical"] or ["measured reps=R min_ns=N"]. *)
val provenance_to_string : provenance -> string

val pp : Format.formatter -> t -> unit
