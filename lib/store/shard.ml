(* Sharded schedule repository: per-operator JSONL files under one
   directory, indexed in memory.  See the interface for the layout and
   concurrency contract. *)

type t = {
  dir : string;
  k : int;
  compact_every : int option;
  index : Index.t;
  (* appends per shard since load / last compaction, driving
     auto-compaction *)
  fresh : (string, int ref) Hashtbl.t;
  mutable probs : issue list;  (* reverse order *)
  mutex : Mutex.t;  (* index + counters; file I/O has its own locks *)
}

and issue = { shard : string; line : int; reason : string }

(* Sanitized operator identity: readable where possible, and safe as a
   file name.  Collisions (two op ids sanitizing alike) only merge two
   operators into one shard file, which loading and compaction both
   tolerate — shards are identified by content, not name. *)
let shard_name (key : Record.key) =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '-')
    (Index.op_id key)

let shard_file t base = Filename.concat t.dir (base ^ ".jsonl")

let with_mutex t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let list_shards dir =
  if not (Sys.file_exists dir) then []
  else
    List.sort compare
      (List.filter_map
         (fun name -> Filename.chop_suffix_opt ~suffix:".jsonl" name)
         (Array.to_list (Sys.readdir dir)))

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let open_dir ?(k = 4) ?compact_every dir =
  (match compact_every with
  | Some n when n < 1 -> invalid_arg "Shard.open_dir: compact_every must be >= 1"
  | _ -> ());
  mkdir_p dir;
  let t =
    {
      dir;
      k;
      compact_every;
      index = Index.create ~k ();
      fresh = Hashtbl.create 16;
      probs = [];
      mutex = Mutex.create ();
    }
  in
  List.iter
    (fun base ->
      let recs, issues = Store_io.load_jsonl (shard_file t base) Record.of_json in
      List.iter (Index.add t.index) recs;
      List.iter
        (fun (line, reason) -> t.probs <- { shard = base; line; reason } :: t.probs)
        issues)
    (list_shards dir);
  t

let issues t = List.rev t.probs

let with_index t f = with_mutex t (fun () -> f t.index)
let count t = with_index t Index.count
let shards t = list_shards t.dir

let best_exact ?method_name t key =
  with_index t (fun index -> Index.best_exact ?method_name index key)

let nearest ?method_name ?limit t key =
  with_index t (fun index -> Index.nearest ?method_name ?limit index key)

(* Rewrite one shard keeping the best-k records per (key, method).
   The file is the source of truth — it is re-read under the shard
   lock so appends from other processes (invisible to this index)
   survive compaction too.  The in-memory index is deliberately left
   alone: everything compaction drops is non-best-k, so queries are
   unaffected. *)
let compact t base =
  let file = shard_file t base in
  Store_io.with_file_lock file (fun () ->
      if not (Sys.file_exists file) then (0, 0)
      else begin
        let keep = Index.create ~k:t.k () in
        (* Malformed lines die with the rewrite: they count as dropped. *)
        let recs, issues = Store_io.load_jsonl file Record.of_json in
        List.iter (Index.add keep) recs;
        let survivors = Index.survivors keep in
        let tmp = file ^ ".compact.tmp" in
        let oc = open_out tmp in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            List.iter
              (fun r ->
                output_string oc (Record.to_json r);
                output_char oc '\n')
              survivors);
        Store_io.replace_file ~src:tmp ~dst:file;
        with_mutex t (fun () ->
            match Hashtbl.find_opt t.fresh base with
            | Some n -> n := 0
            | None -> ());
        let kept = List.length survivors in
        (kept, List.length recs + List.length issues - kept)
      end)

let compact_all t =
  List.fold_left
    (fun (kept, dropped) base ->
      let k, d = compact t base in
      (kept + k, dropped + d))
    (0, 0) (shards t)

let add t record =
  let base = shard_name record.Record.key in
  let file = shard_file t base in
  (* Append under the shard's file lock: if a compaction renames the
     shard between our open and write, the record would land in the
     dead inode.  The lock covers open+write, closing that window. *)
  Store_io.with_file_lock file (fun () ->
      Store_io.append_line file (Record.to_json record));
  let due =
    with_mutex t (fun () ->
        Index.add t.index record;
        match t.compact_every with
        | None -> false
        | Some every ->
            let n =
              match Hashtbl.find_opt t.fresh base with
              | Some n -> n
              | None ->
                  let n = ref 0 in
                  Hashtbl.add t.fresh base n;
                  n
            in
            incr n;
            !n >= every)
  in
  if due then ignore (compact t base)
