(** Minimal JSON values: the repository's one JSON codec.

    The repo deliberately has no external JSON dependency.  Tuning
    logs, checkpoints, wire frames, trace JSONL and the bench reports
    all render through this writer (the only JSON string escaper in the
    tree) and read back through this parser. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Compact one-line rendering.  Floats print with the fewer of 15 or
    17 significant digits that round-trips bit-for-bit; non-finite
    floats render as [null] (JSON has no literal for them).  Strings
    escape quotes, backslashes and control bytes; other bytes
    (UTF-8 included) pass through unchanged. *)
val to_string : t -> string

(** Parse one JSON value; trailing non-whitespace is an error.  Errors
    carry the character position. *)
val of_string : string -> (t, string) result

(** Object field lookup (first match); [None] on non-objects. *)
val member : string -> t -> t option

(** [field value name convert] decodes field [name] of [value] with
    [convert]; errors read [missing field "name"] or
    [field "name": <convert's error>]. *)
val field : t -> string -> (t -> ('a, string) result) -> ('a, string) result

(** Typed accessors; [Error] names the expected type. *)
val to_num : t -> (float, string) result

val to_int : t -> (int, string) result
val to_str : t -> (string, string) result
val to_int_list : t -> (int list, string) result
