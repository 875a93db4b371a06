type issue = { line : int; reason : string }

type t = {
  store_path : string option;
  mutable recs : Record.t list;  (* reverse chronological; enumeration only *)
  index : Index.t;  (* serves best_exact / nearest *)
  mutable probs : issue list;  (* reverse file order *)
}

(* The append contract lives in [Store_io.append_line]: the whole line
   (with its newline) reaches the kernel as one write on an O_APPEND
   descriptor, so concurrent appenders interleave only at line
   granularity — even for records longer than a stdlib channel
   buffer.  Shared with checkpoints and shards. *)
let append_line = Store_io.append_line

let create ?path () =
  let recs, issues =
    match path with
    | None -> ([], [])
    | Some path -> Store_io.load_jsonl path Record.of_json
  in
  let index = Index.create () in
  List.iter (Index.add index) recs;
  { store_path = path; recs = List.rev recs; index;
    probs = List.rev_map (fun (line, reason) -> { line; reason }) issues }

let load path = create ~path ()

let records t = List.rev t.recs
let issues t = List.rev t.probs

let add t record =
  t.recs <- record :: t.recs;
  Index.add t.index record;
  Option.iter (fun path -> append_line path (Record.to_json record)) t.store_path

(* Both queries are served from the index (hash lookup + a walk of the
   key's best-k cells / the operator's shape table) with the original
   fold semantics: highest value wins, earliest of equal values wins. *)
let best_exact ?method_name t key = Index.best_exact ?method_name t.index key
let nearest ?method_name ?limit t key = Index.nearest ?method_name ?limit t.index key
