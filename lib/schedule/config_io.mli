(** Textual (de)serialization of schedule points, for persisting tuned
    schedules. *)

val to_string : Config.t -> string

val of_string : string -> (Config.t, string) result

(** Parse and validate against a space. *)
val of_string_for : Space.t -> string -> (Config.t, string) result
