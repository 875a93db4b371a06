(* Search telemetry: spans, counters, gauges, and structured events
   behind one global on/off flag.

   Disabled (the default) every emission function reads one flag and
   returns, so the search hot path pays a branch, nothing more.  When
   enabled, records flow to a pluggable sink — in-memory for tests,
   JSONL on disk for `optimize --trace` / FT_TRACE.

   The instrumentation rule (DESIGN.md §8): tracing must never consume
   search RNG, reorder evaluations, or otherwise feed back into the
   search — enabling a sink leaves every result bit-for-bit unchanged
   (test_obs checks this property against the real searches). *)

type field = Str of string | Int of int | Float of float | Bool of bool

type kind = Span_begin | Span_end | Event | Counter | Gauge

type record = {
  ts_s : float;
  kind : kind;
  name : string;
  span : int;  (* span id; 0 for non-span records *)
  parent : int;  (* enclosing span id; 0 at top level *)
  fields : (string * field) list;
}

let kind_name = function
  | Span_begin -> "span_begin"
  | Span_end -> "span_end"
  | Event -> "event"
  | Counter -> "counter"
  | Gauge -> "gauge"

(* -- JSON rendering -------------------------------------------------- *)

module Json = Ft_util.Json

(* JSON has no inf/nan literal: the codec renders non-finite floats
   (e.g. an unreached incumbent) as null. *)
let json_of_field = function
  | Str s -> Json.Str s
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f
  | Bool b -> Json.Bool b

let json_of_record r =
  let id key v = if v <> 0 then [ (key, Json.Num (float_of_int v)) ] else [] in
  Json.to_string
    (Json.Obj
       ((("ts", Json.Num r.ts_s) :: ("ev", Json.Str (kind_name r.kind))
        :: ("name", Json.Str r.name) :: id "span" r.span)
       @ id "parent" r.parent
       @ List.map (fun (k, v) -> (k, json_of_field v)) r.fields))

(* -- Sinks ----------------------------------------------------------- *)

module Sink = struct
  type t = { emit : record -> unit; close : unit -> unit }

  let make ?(close = fun () -> ()) emit = { emit; close }

  let null = { emit = ignore; close = ignore }

  let jsonl path =
    let oc = open_out path in
    {
      emit = (fun r -> output_string oc (json_of_record r ^ "\n"));
      close = (fun () -> close_out oc);
    }
end

(* -- Global state ----------------------------------------------------

   One process-wide trace.  Emission can in principle happen from any
   thread or domain, so every state mutation and sink write holds
   [mutex]; the untraced fast path only reads [enabled]. *)

let enabled = ref false
let mutex = Mutex.create ()
let sink = ref Sink.null
let t0 = ref 0.
let next_span = ref 1
let span_stack = ref []  (* innermost first: the current nesting *)
let open_spans : (int, string * float * int) Hashtbl.t = Hashtbl.create 32
let counter_table : (string, int ref) Hashtbl.t = Hashtbl.create 64
let gauge_table : (string, float ref) Hashtbl.t = Hashtbl.create 32

let active () = !enabled

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let now_s () = Ft_util.Monotime.now_s () -. !t0

let enable s =
  locked (fun () ->
      !sink.Sink.close ();
      sink := s;
      t0 := Ft_util.Monotime.now_s ();
      next_span := 1;
      span_stack := [];
      Hashtbl.reset open_spans;
      Hashtbl.reset counter_table;
      Hashtbl.reset gauge_table;
      enabled := true)

let enable_jsonl path = enable (Sink.jsonl path)

let init_from_env () =
  match Sys.getenv_opt "FT_TRACE" with
  | Some path when String.trim path <> "" -> enable_jsonl (String.trim path)
  | Some _ | None -> ()

let emit_locked kind name ~span ~parent fields =
  !sink.Sink.emit { ts_s = now_s (); kind; name; span; parent; fields }

let event name fields =
  if !enabled then
    locked (fun () ->
        let parent = match !span_stack with [] -> 0 | id :: _ -> id in
        emit_locked Event name ~span:0 ~parent fields)

let incr ?(by = 1) name =
  if !enabled then
    locked (fun () ->
        match Hashtbl.find_opt counter_table name with
        | Some r -> r := !r + by
        | None -> Hashtbl.add counter_table name (ref by))

let gauge name value =
  if !enabled then
    locked (fun () ->
        (match Hashtbl.find_opt gauge_table name with
        | Some r -> r := value
        | None -> Hashtbl.add gauge_table name (ref value));
        let parent = match !span_stack with [] -> 0 | id :: _ -> id in
        emit_locked Gauge name ~span:0 ~parent [ ("value", Float value) ])

let span_begin name fields =
  if not !enabled then 0
  else
    locked (fun () ->
        let id = !next_span in
        next_span := id + 1;
        let parent = match !span_stack with [] -> 0 | p :: _ -> p in
        Hashtbl.replace open_spans id (name, now_s (), parent);
        span_stack := id :: !span_stack;
        emit_locked Span_begin name ~span:id ~parent fields;
        id)

let span_end ?(fields = []) id =
  if !enabled && id <> 0 then
    locked (fun () ->
        match Hashtbl.find_opt open_spans id with
        | None -> ()  (* unknown or already ended: ignore *)
        | Some (name, began, parent) ->
            Hashtbl.remove open_spans id;
            span_stack := List.filter (fun x -> x <> id) !span_stack;
            let dur = Float.max 0. (now_s () -. began) in
            emit_locked Span_end name ~span:id ~parent
              (("dur_s", Float dur) :: fields))

let with_span name ?(fields = []) f =
  if not !enabled then f ()
  else
    let id = span_begin name fields in
    Fun.protect ~finally:(fun () -> span_end id) f

let counters () =
  locked (fun () ->
      List.sort compare
        (Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counter_table []))

let gauges () =
  locked (fun () ->
      List.sort compare
        (Hashtbl.fold (fun name r acc -> (name, !r) :: acc) gauge_table []))

(* Flush counter/gauge totals as summary records, close the sink, and
   disable.  Idempotent: a second close is a no-op. *)
let close () =
  if !enabled then
    locked (fun () ->
        enabled := false;
        Hashtbl.iter
          (fun name r ->
            emit_locked Counter name ~span:0 ~parent:0 [ ("n", Int !r) ])
          counter_table;
        Hashtbl.iter
          (fun name r ->
            emit_locked Gauge name ~span:0 ~parent:0 [ ("value", Float !r) ])
          gauge_table;
        !sink.Sink.close ();
        sink := Sink.null)
