(** Crash-safe search checkpoints.

    The search loop periodically appends its resumable state —
    incumbent, trial index, RNG state, accounting — to a JSONL file,
    one checkpoint per line.  The file shares the tuning log's
    durability contract: appends are line-atomic ([O_APPEND], one
    buffered write per checkpoint), and loading is tolerant — a torn
    final line from a crash mid-append, or any hand-mangled line, is
    skipped and reported, never fatal.  [flextensor optimize --resume]
    continues a run from its newest matching checkpoint. *)

type t = {
  run_id : string;  (** identifies the (space, method, seed) run *)
  trial : int;  (** next trial index the resumed loop should run *)
  n_evals : int;
  clock_s : float;
  best_value : float;
  config : string;  (** incumbent schedule, {!Ft_schedule.Config_io} text *)
  rng_state : int64;  (** search RNG state at the checkpoint *)
}

(** Append one checkpoint line (line-atomic; creates the file). *)
val append : string -> t -> unit

(** A skipped checkpoint line. *)
type issue = { line : int;  (** 1-based *) reason : string }

(** The newest checkpoint whose [run_id] matches, if any, plus the
    skipped lines.  A missing file is an empty trail. *)
val latest : run_id:string -> string -> t option * issue list
