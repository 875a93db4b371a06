(** The traced pass's JSONL file: {!Ft_obs.Trace} span and counter
    records line by line, plus one aggregated line per event or gauge
    name (a [count] field and the sum of each numeric field). *)

(** [sink path] writes [path] in that format.  Call the returned
    function just before {!Ft_obs.Trace.close}, so the final gauge
    values it replays are not counted as more updates. *)
val sink : string -> Ft_obs.Trace.Sink.t * (unit -> unit)

type span = { id : int; parent : int; name : string; start_s : float; stop_s : float }

type t

(** Closed spans, in closing order. *)
val spans : t -> span list

(** Fold JSONL lines.  Unparsable lines and spans that never closed are
    skipped. *)
val of_lines : string list -> t

val load : string -> t

(** A counter's total (0 when absent). *)
val counter : t -> string -> int

(** How many times an event or gauge fired. *)
val count : t -> string -> float

(** Sum of one numeric field over an event or gauge's records. *)
val sum : t -> string -> string -> float

(** A span's duration minus the union of its children's intervals. *)
val self_s : t -> span -> float

(** Per span name: number of spans, inclusive and self seconds. *)
type row = { name : string; calls : int; total_s : float; self_s : float }

val row : t -> string -> row

(** Every span name, by descending self time. *)
val rows : t -> row list
