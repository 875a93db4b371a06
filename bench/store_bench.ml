open Ft_store

(* `bench store`: the tuning log's query paths.  Two questions:
   (1) how much faster is the indexed [best_exact] than the O(n) fold
   it replaced, at tuning-log scale (10k records); (2) how much faster
   is the one-pass [nearest] than the sort-based ranking it replaced,
   on the same log.  Results go to BENCH_store.json; CI gates the
   speedups (>= 10x and >= 5x at 10k records). *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* FT_BENCH_STORE_RECORDS shrinks the run for smoke jobs; the default
   is the acceptance-scale number. *)
let n_records () = env_int "FT_BENCH_STORE_RECORDS" 10_000

let n_shapes = 200

(* Synthetic tuning-log records: one operator kind, many shapes, realistic key/config text.  Built directly — no schedule
   space needed to exercise the store. *)
let key_of_shape i =
  let m = 16 * (1 + (i mod 20)) and n = 16 * (1 + (i / 20 mod 10)) in
  let k = 8 * (1 + (i mod 16)) in
  {
    Record.graph = Printf.sprintf "gemm_%dx%dx%d" m n k;
    op = "gemm";
    target = "V100";
    spatial = [ m; n ];
    reduce = [ k ];
  }

let record_of i =
  {
    Record.key = key_of_shape (i mod n_shapes);
    method_name = "Q-method";
    seed = i;
    best_value = float_of_int ((i * 7919) mod 10_000);
    sim_time_s = 1.0;
    n_evals = 10;
    config = "s=1,1,16,2;1,1,32,1 r=4,1,8 o=0 u=3 f=1 v=0 i=1 p=0";
    source = "analytical";
  }

let time_ns_per f reps =
  let t0 = Ft_util.Monotime.now_s () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  Ft_util.Monotime.elapsed_s t0 *. 1e9 /. float_of_int reps

(* The O(n) fold [Store.best_exact] used before the index: highest
   value, earliest wins ties — kept here as the baseline under test. *)
let fold_best recs ~method_name key =
  List.fold_left
    (fun best r ->
      if
        Record.key_equal r.Record.key key
        && String.equal r.Record.method_name method_name
      then
        match best with
        | Some b when b.Record.best_value >= r.Record.best_value -> best
        | _ -> Some r
      else best)
    None recs

let shape_id (k : Record.key) =
  let ints l = String.concat "," (List.map string_of_int l) in
  ints k.spatial ^ "|" ^ ints k.reduce

(* The sort-based [nearest] the per-shape index replaced, over the
   per-(method, graph, shape) best records it kept: per query, a fresh
   table of each shape's best (earliest wins ties), then a full sort
   computing two distances per comparison — kept here as the baseline
   under test. *)
let sort_nearest cells ~method_name ~limit key =
  let by_shape = Hashtbl.create 16 in
  List.iter
    (fun (r : Record.t) ->
      if
        Record.same_operator r.key key
        && (not (Record.key_equal r.key key))
        && String.equal r.method_name method_name
      then
        let id = shape_id r.key in
        match Hashtbl.find_opt by_shape id with
        | Some (b : Record.t) when b.best_value >= r.best_value -> ()
        | _ -> Hashtbl.replace by_shape id r)
    cells;
  let ranked =
    List.sort
      (fun (a : Record.t) (b : Record.t) ->
        match
          compare (Record.shape_distance a.key key) (Record.shape_distance b.key key)
        with
        | 0 -> (
            match compare b.best_value a.best_value with
            | 0 -> compare (shape_id a.key) (shape_id b.key)
            | c -> c)
        | c -> c)
      (Hashtbl.fold (fun _ r acc -> r :: acc) by_shape [])
  in
  List.filteri (fun i _ -> i < limit) ranked

(* The best record per (method, graph, shape), earliest wins ties, in
   log order: what the replaced index ranked per query. *)
let shape_cells recs =
  let best = Hashtbl.create 256 in
  List.iteri
    (fun i (r : Record.t) ->
      let id = String.concat "|" [ r.method_name; r.key.graph; shape_id r.key ] in
      match Hashtbl.find_opt best id with
      | Some (_, (b : Record.t)) when b.best_value >= r.best_value -> ()
      | _ -> Hashtbl.replace best id (i, r))
    recs;
  Hashtbl.fold (fun _ c acc -> c :: acc) best []
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map snd

let bench_index () =
  let n = n_records () in
  let store = Store.create () in
  for i = 1 to n do
    Store.add store (record_of i)
  done;
  let recs = Store.records store in
  let probe_keys = List.map key_of_shape [ 0; n_shapes / 2; n_shapes - 1 ] in
  List.iter
    (fun key ->
      let indexed = Store.best_exact ~method_name:"Q-method" store key in
      let folded = fold_best recs ~method_name:"Q-method" key in
      assert (
        match (indexed, folded) with
        | Some a, Some b -> a.Record.seed = b.Record.seed
        | None, None -> true
        | _ -> false))
    probe_keys;
  let bench probes f =
    let rates = List.map (fun key -> time_ns_per (fun () -> f key) probes) probe_keys in
    List.fold_left ( +. ) 0. rates /. float_of_int (List.length rates)
  in
  let indexed_ns =
    bench 20_000 (fun key -> Store.best_exact ~method_name:"Q-method" store key)
  in
  let fold_ns =
    bench 50 (fun key -> fold_best recs ~method_name:"Q-method" key)
  in
  (* Logged shapes and off-grid ones (no exact record). *)
  let near_keys =
    probe_keys
    @ List.map
        (fun (m, n, k) ->
          { (key_of_shape 0) with
            graph = Printf.sprintf "gemm_%dx%dx%d" m n k;
            spatial = [ m; n ];
            reduce = [ k ] })
        [ (24, 40, 12); (100, 7, 300); (512, 512, 512) ]
  in
  let cells = shape_cells recs in
  List.iter
    (fun key ->
      let seeds = List.map (fun (r : Record.t) -> r.seed) in
      assert (
        seeds (Store.nearest ~method_name:"Q-method" ~limit:3 store key)
        = seeds (sort_nearest cells ~method_name:"Q-method" ~limit:3 key)))
    near_keys;
  let bench_near probes f =
    let rates = List.map (fun key -> time_ns_per (fun () -> f key) probes) near_keys in
    List.fold_left ( +. ) 0. rates /. float_of_int (List.length rates)
  in
  let near_indexed_ns =
    bench_near 2_000 (fun key ->
        Store.nearest ~method_name:"Q-method" ~limit:3 store key)
  in
  let near_sort_ns =
    bench_near 100 (fun key ->
        sort_nearest cells ~method_name:"Q-method" ~limit:3 key)
  in
  (n, (indexed_ns, fold_ns), (near_indexed_ns, near_sort_ns))

let write_json ~records ~exact:(indexed_ns, fold_ns) ~near:(near_ns, sort_ns) path =
  let num f = Json.Num f in
  let json =
    Json.Obj
      [
        ("records", num (float_of_int records));
        ( "best_exact",
          Json.Obj
            [
              ("indexed_ns", num indexed_ns);
              ("fold_ns", num fold_ns);
              ("indexed_speedup", num (fold_ns /. indexed_ns));
            ] );
        ( "nearest",
          Json.Obj
            [
              ("indexed_ns", num near_ns);
              ("sort_ns", num sort_ns);
              ("indexed_speedup", num (sort_ns /. near_ns));
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let run () =
  Bench_common.section "Tuning log (index vs fold)";
  Bench_common.subsection "indexed best_exact vs O(n) fold, nearest vs sort";
  let records, ((indexed_ns, fold_ns) as exact), ((near_ns, sort_ns) as near) =
    bench_index ()
  in
  Ft_util.Table.print ~header:[ "lookup path"; "ns/query"; "speedup" ]
    [
      [ Printf.sprintf "best_exact: fold over %d records" records;
        Printf.sprintf "%.0f" fold_ns; "1.00x" ];
      [ "best_exact: indexed"; Printf.sprintf "%.0f" indexed_ns;
        Printf.sprintf "%.2fx" (fold_ns /. indexed_ns) ];
      [ "nearest: sort-based ranking"; Printf.sprintf "%.0f" sort_ns; "1.00x" ];
      [ "nearest: one pass"; Printf.sprintf "%.0f" near_ns;
        Printf.sprintf "%.2fx" (sort_ns /. near_ns) ];
    ];
  write_json ~records ~exact ~near "BENCH_store.json";
  print_endline "\n[wrote BENCH_store.json]"
