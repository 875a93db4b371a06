(** Search telemetry: spans, counters, gauges, and structured events
    behind one global flag, emitted to a pluggable sink.

    Disabled by default and zero-cost when disabled — every emission
    function reads one flag and returns.  The instrumentation rule
    (DESIGN.md §8): emission must never consume search RNG or change
    evaluation order, so enabling a sink leaves every search result
    bit-for-bit unchanged. *)

type field = Str of string | Int of int | Float of float | Bool of bool

type kind = Span_begin | Span_end | Event | Counter | Gauge

type record = {
  ts_s : float;  (** monotonic seconds since the sink was installed *)
  kind : kind;
  name : string;
  span : int;  (** span id; 0 for non-span records *)
  parent : int;  (** enclosing span id; 0 at top level *)
  fields : (string * field) list;
}

(** One JSON object (single line, no trailing newline) per record:
    [{"ts":…,"ev":…,"name":…,"span":…,"parent":…,<fields>}], rendered
    by {!Ft_util.Json}: floats round-trip bit-for-bit, non-finite
    floats become [null]. *)
val json_of_record : record -> string

module Sink : sig
  type t

  (** [make ?close emit] is a custom sink (e.g. in-memory for tests). *)
  val make : ?close:(unit -> unit) -> (record -> unit) -> t
end

(** [enable sink] installs [sink], resets the clock, spans, counters,
    and gauges, and turns tracing on (closing any previous sink). *)
val enable : Sink.t -> unit

(** [enable_jsonl path] enables a sink writing one JSON object per
    line to [path] (truncating an existing file). *)
val enable_jsonl : string -> unit

(** Install a JSONL sink on [$FT_TRACE] when set and non-empty;
    otherwise leave tracing off. *)
val init_from_env : unit -> unit

(** Emit counter/gauge summary records, close the sink, turn tracing
    off.  Idempotent. *)
val close : unit -> unit

(** True when a sink is installed.  Guard any emission whose argument
    construction is itself costly. *)
val active : unit -> bool

(** Seconds since the sink was installed (the clock behind every
    record's [ts_s]) — for instrumentation that accumulates durations
    into counters.  Only meaningful while {!active}. *)
val now_s : unit -> float

val event : string -> (string * field) list -> unit

(** Add to a named counter (in memory; totals are emitted by
    {!close} and readable via {!counters}). *)
val incr : ?by:int -> string -> unit

(** Set a named gauge: records the value and emits a gauge record. *)
val gauge : string -> float -> unit

(** [with_span name ?fields f] wraps [f ()] in a span: a begin record
    carrying [fields], then an end record carrying the wall-clock
    [dur_s], emitted on normal return and on exceptions.  Spans nest:
    the innermost open span is the parent of everything emitted inside
    it. *)
val with_span : string -> ?fields:(string * field) list -> (unit -> 'a) -> 'a

(** Snapshot of all counters / gauges, sorted by name. *)
val counters : unit -> (string * int) list

val gauges : unit -> (string * float) list
