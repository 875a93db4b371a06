(** Textual (de)serialization of schedule points, for persisting tuned
    schedules. *)

val to_string : Config.t -> string

(** Strict inverse of {!to_string}: every field exactly once, integers
    in plain decimal, flags [0] or [1].  The error names the offending
    field. *)
val of_string : string -> (Config.t, string) result

(** Parse and validate against a space. *)
val of_string_for : Space.t -> string -> (Config.t, string) result
