(* The traced pass's JSONL file: written by [sink] in the workload
   process, folded by [load] in `ftbench run`.

   Spans and counters are written line by line in {!Ft_obs.Trace}'s own
   record format.  Events and gauges fire once per evaluation or per
   Q-network update — millions of lines on a P-method run — so the sink
   folds them in memory instead and writes one line per name at close,
   carrying a [count] field and the sum of every numeric field.  The
   fold reads either form: a record without [count] counts once. *)

module Trace = Ft_obs.Trace
module Json = Ft_store.Json

type aggregate = { mutable count : int; sums : (string, float) Hashtbl.t }

let sink path =
  let oc = open_out path in
  let aggregates : (Trace.kind * string, aggregate) Hashtbl.t = Hashtbl.create 64 in
  (* Trace.close replays every gauge's final value through the sink;
     those repeats would inflate the per-name counts. *)
  let closing = ref false in
  let emit (r : Trace.record) =
    match r.kind with
    | Trace.Span_begin | Trace.Span_end | Trace.Counter ->
        output_string oc (Trace.json_of_record r);
        output_char oc '\n'
    | Trace.Gauge when !closing -> ()
    | Trace.Event | Trace.Gauge ->
        let agg =
          match Hashtbl.find_opt aggregates (r.kind, r.name) with
          | Some a -> a
          | None ->
              let a = { count = 0; sums = Hashtbl.create 4 } in
              Hashtbl.add aggregates (r.kind, r.name) a;
              a
        in
        agg.count <- agg.count + 1;
        List.iter
          (fun (field, v) ->
            let x =
              match v with
              | Trace.Int i -> Some (float_of_int i)
              | Trace.Float f -> Some f
              | Trace.Str _ | Trace.Bool _ -> None
            in
            match x with
            | Some x ->
                let prev = Option.value ~default:0. (Hashtbl.find_opt agg.sums field) in
                Hashtbl.replace agg.sums field (prev +. x)
            | None -> ())
          r.fields
  in
  let close () =
    Hashtbl.iter
      (fun (kind, name) agg ->
        let sums = Hashtbl.fold (fun f s acc -> (f, Trace.Float s) :: acc) agg.sums [] in
        output_string oc
          (Trace.json_of_record
             { Trace.ts_s = 0.; kind; name; span = 0; parent = 0;
               fields = ("count", Trace.Int agg.count) :: List.sort compare sums });
        output_char oc '\n')
      aggregates;
    close_out oc
  in
  let sink = Trace.Sink.make ~close emit in
  (sink, fun () -> closing := true)

(* -- Folding ------------------------------------------------------------ *)

type span = { id : int; parent : int; name : string; start_s : float; stop_s : float }

type t = {
  spans : span list;  (* closed spans, in closing order *)
  self : (int, float) Hashtbl.t;  (* span id -> self time *)
  counters : (string, int) Hashtbl.t;
  records : (string, float) Hashtbl.t;  (* "name" -> count, "name.field" -> sum *)
}

let num field json =
  match Json.member field json with
  | Some v -> Result.to_option (Json.to_num v)
  | None -> None

let str field json =
  match Json.member field json with
  | Some v -> Result.to_option (Json.to_str v)
  | None -> None

let add tbl key x =
  Hashtbl.replace tbl key (x +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

(* Self time: the span's duration minus the part of its interval that
   its children cover (their union, clipped to the span). *)
let self_time span children =
  let intervals =
    List.sort compare
      (List.filter_map
         (fun c ->
           let lo = Float.max c.start_s span.start_s
           and hi = Float.min c.stop_s span.stop_s in
           if hi > lo then Some (lo, hi) else None)
         children)
  in
  let covered, _ =
    List.fold_left
      (fun (covered, reach) (lo, hi) ->
        let lo = Float.max lo reach in
        if hi > lo then (covered +. (hi -. lo), hi) else (covered, reach))
      (0., Float.neg_infinity) intervals
  in
  span.stop_s -. span.start_s -. covered

let of_lines lines =
  let opened = Hashtbl.create 256 in
  let spans = ref [] in
  let counters = Hashtbl.create 32 in
  let records = Hashtbl.create 32 in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error _ -> ()  (* a torn final line *)
      | Ok json -> (
          let name = Option.value ~default:"" (str "name" json) in
          let int field = Option.fold ~none:0 ~some:int_of_float (num field json) in
          let ts = Option.value ~default:0. (num "ts" json) in
          match str "ev" json with
          | Some "span_begin" -> Hashtbl.replace opened (int "span") ts
          | Some "span_end" -> (
              let id = int "span" in
              match Hashtbl.find_opt opened id with
              | Some start_s ->
                  Hashtbl.remove opened id;
                  spans := { id; parent = int "parent"; name; start_s; stop_s = ts } :: !spans
              | None -> ())
          | Some "counter" ->
              Hashtbl.replace counters name
                (int "n" + Option.value ~default:0 (Hashtbl.find_opt counters name))
          | Some ("event" | "gauge") ->
              let count = Option.value ~default:1. (num "count" json) in
              add records name count;
              (match json with
              | Json.Obj fields ->
                  List.iter
                    (fun (field, v) ->
                      match (field, v) with
                      | ("ts" | "count" | "span" | "parent"), _ -> ()
                      | _, Json.Num x -> add records (name ^ "." ^ field) x
                      | _ -> ())
                    fields
              | _ -> ())
          | _ -> ()))
    lines;
  let spans = List.rev !spans in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let self = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace self s.id
        (self_time s (Option.value ~default:[] (Hashtbl.find_opt children s.id))))
    spans;
  { spans; self; counters; records }

let load path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read []) in
  of_lines lines

let spans t = t.spans
let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)
let count t name = Option.value ~default:0. (Hashtbl.find_opt t.records name)

let sum t name field =
  Option.value ~default:0. (Hashtbl.find_opt t.records (name ^ "." ^ field))

let self_s t span = Hashtbl.find t.self span.id

type row = { name : string; calls : int; total_s : float; self_s : float }

let spans_named t name = List.filter (fun (s : span) -> s.name = name) t.spans

let row t name =
  List.fold_left
    (fun r (s : span) ->
      { r with calls = r.calls + 1; total_s = r.total_s +. (s.stop_s -. s.start_s);
               self_s = r.self_s +. self_s t s })
    { name; calls = 0; total_s = 0.; self_s = 0. }
    (spans_named t name)

let rows t =
  let names = List.sort_uniq compare (List.map (fun (s : span) -> s.name) t.spans) in
  List.sort (fun a b -> compare b.self_s a.self_s) (List.map (row t) names)
