(* Crash-safe search checkpoints: an append-only JSONL file, one
   checkpoint per line, sharing the tuning log's durability contract —
   O_APPEND line-atomic appends, tolerant loading that skips (and
   reports) malformed or torn lines instead of failing the resume. *)

type t = {
  run_id : string;  (* identifies the (space, method, seed) run *)
  trial : int;  (* next trial index the resumed loop should run *)
  n_evals : int;
  clock_s : float;
  best_value : float;
  config : string;  (* incumbent, Config_io text *)
  rng_state : int64;  (* search RNG state at the checkpoint *)
}

let to_json c =
  Json.to_string
    (Json.Obj
       [
         ("run", Json.Str c.run_id);
         ("trial", Json.Num (float_of_int c.trial));
         ("n_evals", Json.Num (float_of_int c.n_evals));
         ("clock_s", Json.Num c.clock_s);
         ("best", Json.Num c.best_value);
         ("config", Json.Str c.config);
         (* int64 does not round-trip through a JSON double; carry the
            RNG state as a decimal string. *)
         ("rng", Json.Str (Int64.to_string c.rng_state));
       ])

let ( let* ) = Result.bind

let of_json line =
  let* value = Json.of_string line in
  let* run_id = Json.field value "run" Json.to_str in
  let* trial = Json.field value "trial" Json.to_int in
  let* n_evals = Json.field value "n_evals" Json.to_int in
  let* clock_s = Json.field value "clock_s" Json.to_num in
  let* best_value = Json.field value "best" Json.to_num in
  let* config = Json.field value "config" Json.to_str in
  let* rng_state =
    Json.field value "rng" (fun v ->
        let* s = Json.to_str v in
        match Int64.of_string_opt s with
        | Some i -> Ok i
        | None -> Error "expected an int64 string")
  in
  Ok { run_id; trial; n_evals; clock_s; best_value; config; rng_state }

(* Same append discipline as the tuning log ([Store_io.append_line]):
   one complete line per write on an O_APPEND descriptor, so a crash
   mid-checkpoint can at worst tear the final line — which [load] then
   skips. *)
let append path c = Store_io.append_line path (to_json c)

type issue = { line : int; reason : string }

let load path =
  let cks, issues = Store_io.load_jsonl path of_json in
  (cks, List.map (fun (line, reason) -> { line; reason }) issues)

(* The newest checkpoint wins; earlier lines for the same run are the
   trail it appended on the way. *)
let latest ~run_id path =
  let cks, issues = load path in
  let hit =
    List.fold_left
      (fun acc c -> if String.equal c.run_id run_id then Some c else acc)
      None cks
  in
  (hit, issues)
