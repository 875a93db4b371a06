(* The servable store: line-atomic appends under concurrency, the
   sharded repository and its compaction (including racing appenders),
   index-vs-fold semantic equivalence, the wire protocol, and the
   daemon end-to-end — a remote exact hit must return the same record
   bytes a local lookup would, and a dead daemon must degrade a warm
   start, never fail a search. *)

open Ft_store

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_log () = Filename.temp_file "ft_svc_test" ".jsonl"

let temp_dir () =
  let path = Filename.temp_file "ft_svc_store" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let target = Ft_schedule.Target.v100
let space_of graph = Ft_schedule.Space.make graph target
let gemm ~m ~n ~k = Ft_ir.Operators.gemm ~m ~n ~k

let record_of ?(method_name = "Q-method") ?(seed = 2020) ?(best = 100.)
    ?(config = "") space =
  let config =
    if config <> "" then config
    else Ft_schedule.Config_io.to_string (Ft_schedule.Space.default_config space)
  in
  {
    Record.key = Record.key_of_space space;
    method_name;
    seed;
    best_value = best;
    sim_time_s = 12.5;
    n_evals = 40;
    config;
    source = "analytical";
  }

(* --- satellite regression: line-atomic appends --- *)

(* A record whose line is far longer than the 64 KiB stdlib channel
   buffer, appended from concurrent domains: the old channel path
   flushed mid-line, interleaving appenders *inside* a line; the
   single-write path must keep every line whole. *)
let test_concurrent_big_appends_atomic () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let n_domains = 4 and per_domain = 6 in
      let big_config seed = String.make 100_000 (Char.chr (Char.code 'a' + seed)) in
      let space = space_of (gemm ~m:64 ~n:64 ~k:64) in
      let go = Atomic.make false in
      let domains =
        List.init n_domains (fun d ->
            Domain.spawn (fun () ->
                while not (Atomic.get go) do Domain.cpu_relax () done;
                for i = 1 to per_domain do
                  Store_io.append_line path
                    (Record.to_json
                       (record_of ~seed:d ~best:(float_of_int ((d * 100) + i))
                          ~config:(big_config d) space))
                done))
      in
      Atomic.set go true;
      List.iter Domain.join domains;
      let store = Store.load path in
      check_int "no torn lines" 0 (List.length (Store.issues store));
      check_int "every record present" (n_domains * per_domain)
        (List.length (Store.records store));
      (* each line must be one writer's record, never an interleaving *)
      List.iter
        (fun r ->
          check_int "config from a single writer" 100_000
            (String.length r.Record.config);
          check_bool "single writer's bytes" true
            (String.for_all (fun c -> c = r.Record.config.[0]) r.Record.config))
        (Store.records store))

let test_concurrent_append_stress () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let n_domains = 8 and per_domain = 50 in
      let space = space_of (gemm ~m:32 ~n:32 ~k:32) in
      let domains =
        List.init n_domains (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per_domain do
                  Store_io.append_line path
                    (Record.to_json
                       (record_of ~seed:((d * 1000) + i)
                          ~best:(float_of_int ((d * 1000) + i))
                          space))
                done))
      in
      List.iter Domain.join domains;
      let store = Store.load path in
      check_int "zero issues" 0 (List.length (Store.issues store));
      check_int "every record survives" (n_domains * per_domain)
        (List.length (Store.records store));
      let seeds =
        List.sort_uniq compare
          (List.map (fun r -> r.Record.seed) (Store.records store))
      in
      check_int "all writers represented, no duplicates"
        (n_domains * per_domain) (List.length seeds))

(* --- index semantics: the hash path must reproduce the fold path --- *)

(* Random streams of records into both the (index-backed) store and a
   reference fold over the raw list: best_exact and nearest must
   agree record-for-record, including the earliest-wins tie rule. *)
let reference_best ?method_name recs key =
  List.fold_left
    (fun best r ->
      let matches =
        Record.key_equal r.Record.key key
        && match method_name with
           | None -> true
           | Some m -> String.equal m r.Record.method_name
      in
      if not matches then best
      else
        match best with
        | Some b when b.Record.best_value >= r.Record.best_value -> best
        | _ -> Some r)
    None recs

let qcheck_index_matches_fold =
  QCheck.Test.make ~name:"index best_exact == reference fold" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let spaces =
        [ space_of (gemm ~m:32 ~n:32 ~k:32);
          space_of (gemm ~m:64 ~n:64 ~k:64);
          space_of (gemm ~m:64 ~n:32 ~k:32);
          space_of (Ft_ir.Operators.gemv ~m:64 ~k:64) ]
      in
      let methods = [ "Q-method"; "AutoTVM" ] in
      let store = Store.create () in
      let recs = ref [] in
      for i = 1 to 40 do
        let space = List.nth spaces (Ft_util.Rng.int rng (List.length spaces)) in
        let method_name =
          List.nth methods (Ft_util.Rng.int rng (List.length methods))
        in
        (* few distinct values, so ties actually occur *)
        let best = float_of_int (Ft_util.Rng.int rng 4) in
        let r = record_of ~method_name ~seed:i ~best space in
        Store.add store r;
        recs := !recs @ [ r ]
      done;
      List.for_all
        (fun space ->
          let key = Record.key_of_space space in
          List.for_all
            (fun method_name ->
              let indexed = Store.best_exact ?method_name store key in
              let folded = reference_best ?method_name !recs key in
              match (indexed, folded) with
              | None, None -> true
              | Some a, Some b ->
                  (* earliest-wins: the *same* record, not just an equal value *)
                  a.Record.seed = b.Record.seed
              | _ -> false)
            (None :: List.map Option.some methods))
        spaces)

(* The nearest-shape ranking, written over the raw record list: per
   distinct shape of the key's operator kind (the exact key excluded),
   the chronologically first record of the highest value; ranked by
   distance, then higher value, then textual shape id; first [limit]. *)
let reference_nearest ?method_name ~limit recs (key : Record.key) =
  let shape_text (k : Record.key) =
    let ints l = String.concat "," (List.map string_of_int l) in
    ints k.spatial ^ "|" ^ ints k.reduce
  in
  let bests =
    List.fold_left
      (fun acc (r : Record.t) ->
        let qualifies =
          Record.same_operator r.key key
          && (not (Record.key_equal r.key key))
          && match method_name with
             | None -> true
             | Some m -> String.equal m r.method_name
        in
        let id = shape_text r.key in
        if not qualifies then acc
        else
          match List.assoc_opt id acc with
          | Some (b : Record.t) when b.best_value >= r.best_value -> acc
          | _ -> (id, r) :: List.remove_assoc id acc)
      [] recs
  in
  let ranked =
    List.sort
      (fun (ia, (a : Record.t)) (ib, (b : Record.t)) ->
        match
          Float.compare
            (Record.shape_distance a.key key)
            (Record.shape_distance b.key key)
        with
        | 0 -> (
            match Float.compare b.best_value a.best_value with
            | 0 -> String.compare ia ib
            | c -> c)
        | c -> c)
      bests
  in
  List.filteri (fun i _ -> i < limit) (List.map snd ranked)

(* Mirrored extents ([32;64] against [64;32]) tie on distance, few
   distinct values tie on value, and a graph alias puts a second
   (method, graph) cell on one shape — a same-shape record that the
   exact-key exclusion keeps, at distance 0. *)
let qcheck_nearest_matches_reference =
  QCheck.Test.make ~name:"index nearest == reference ranking" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Ft_util.Rng.create seed in
      let spaces =
        [ space_of (gemm ~m:32 ~n:32 ~k:32);
          space_of (gemm ~m:32 ~n:64 ~k:32);
          space_of (gemm ~m:64 ~n:32 ~k:32);
          space_of (gemm ~m:64 ~n:64 ~k:64);
          space_of (gemm ~m:128 ~n:32 ~k:64);
          space_of (Ft_ir.Operators.gemv ~m:64 ~k:64) ]
      in
      let methods = [ "Q-method"; "AutoTVM" ] in
      let alias (r : Record.t) =
        { r with key = { r.key with graph = r.key.graph ^ "_alias" } }
      in
      let pick l = List.nth l (Ft_util.Rng.int rng (List.length l)) in
      let recs =
        List.init 40 (fun i ->
            let r =
              record_of ~method_name:(pick methods) ~seed:i
                ~best:(float_of_int (Ft_util.Rng.int rng 3))
                (pick spaces)
            in
            if Ft_util.Rng.int rng 3 = 0 then alias r else r)
      in
      let store = Store.create () in
      List.iter (Store.add store) recs;
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let repo = Shard.open_dir dir in
          List.iter (Shard.add repo) recs;
          let keys =
            List.concat_map
              (fun s ->
                let key = Record.key_of_space s in
                [ key; { key with graph = key.graph ^ "_alias" } ])
              (space_of (gemm ~m:256 ~n:16 ~k:32) :: spaces)
          in
          let seeds = List.map (fun (r : Record.t) -> r.seed) in
          List.for_all
            (fun key ->
              List.for_all
                (fun method_name ->
                  List.for_all
                    (fun limit ->
                      let want =
                        seeds (reference_nearest ?method_name ~limit recs key)
                      in
                      seeds (Store.nearest ?method_name ~limit store key) = want
                      && seeds (Shard.nearest ?method_name ~limit repo key) = want)
                    [ 0; 1; 2; 3; 4; 5 ])
                (None :: List.map Option.some methods))
            keys))

(* --- sharded repository --- *)

(* Shard file names are sanitized [op_id]s, so its rendering is part of
   the on-disk format: pinned byte-for-byte. *)
let test_op_id_pinned () =
  let key graph target = Record.key_of_space (Ft_schedule.Space.make graph target) in
  let conv =
    key
      (Ft_ir.Operators.conv2d ~batch:1 ~in_channels:3 ~out_channels:8 ~height:8
         ~width:8 ~kernel:3 ())
      Ft_schedule.Target.xeon_e5_2699_v4
  in
  check_string "gemm" "gemm|V100|2|1" (Index.op_id (key (gemm ~m:64 ~n:32 ~k:16) target));
  check_string "conv2d" "conv2d|Xeon-E5-2699v4|4|3" (Index.op_id conv);
  check_string "gemv" "gemv|VU9P|1|1"
    (Index.op_id (key (Ft_ir.Operators.gemv ~m:64 ~k:64) Ft_schedule.Target.vu9p));
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let repo = Shard.open_dir dir in
      Shard.add repo { (record_of (space_of (gemm ~m:8 ~n:8 ~k:8))) with key = conv };
      Alcotest.(check (list string)) "shard name" [ "conv2d-Xeon-E5-2699v4-4-3" ]
        (Shard.shards repo))

let test_shard_roundtrip_and_reload () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let repo = Shard.open_dir dir in
      let s64 = space_of (gemm ~m:64 ~n:64 ~k:64) in
      let s128 = space_of (gemm ~m:128 ~n:128 ~k:128) in
      let gemv = space_of (Ft_ir.Operators.gemv ~m:64 ~k:64) in
      Shard.add repo (record_of ~best:10. s64);
      Shard.add repo (record_of ~best:30. s64);
      Shard.add repo (record_of ~best:20. s128);
      Shard.add repo (record_of ~best:40. gemv);
      check_int "records indexed" 4 (Shard.count repo);
      check_int "gemm and gemv shards" 2 (List.length (Shard.shards repo));
      (match Shard.best_exact ~method_name:"Q-method" repo (Record.key_of_space s64) with
      | Some r -> Alcotest.(check (float 0.)) "best of the key" 30. r.best_value
      | None -> Alcotest.fail "expected a hit");
      let near =
        Shard.nearest ~method_name:"Q-method" repo (Record.key_of_space s64)
      in
      check_int "same-operator neighbors only" 1 (List.length near);
      (* a fresh handle re-indexes the files identically *)
      let reloaded = Shard.open_dir dir in
      check_int "reload sees every record" 4 (Shard.count reloaded);
      check_int "reload has no issues" 0 (List.length (Shard.issues reloaded));
      match
        Shard.best_exact ~method_name:"Q-method" reloaded (Record.key_of_space s64)
      with
      | Some r -> Alcotest.(check (float 0.)) "reload serves same best" 30. r.best_value
      | None -> Alcotest.fail "expected a hit after reload")

let test_compaction_keeps_best_k () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let repo = Shard.open_dir ~k:2 dir in
      let space = space_of (gemm ~m:64 ~n:64 ~k:64) in
      List.iter
        (fun best -> Shard.add repo (record_of ~seed:(int_of_float best) ~best space))
        [ 5.; 9.; 1.; 7.; 3. ];
      Shard.add repo (record_of ~method_name:"AutoTVM" ~best:2. space);
      let kept, dropped = Shard.compact_all repo in
      check_int "k best per (key, method) kept" 3 kept;
      check_int "rest dropped" 3 dropped;
      let reloaded = Shard.open_dir dir in
      check_int "file rewritten to survivors" 3 (Shard.count reloaded);
      (match
         Shard.best_exact ~method_name:"Q-method" reloaded (Record.key_of_space space)
       with
      | Some r -> Alcotest.(check (float 0.)) "best survives" 9. r.best_value
      | None -> Alcotest.fail "expected the best to survive");
      match
        Shard.best_exact ~method_name:"AutoTVM" reloaded (Record.key_of_space space)
      with
      | Some r -> Alcotest.(check (float 0.)) "per-method best survives" 2. r.best_value
      | None -> Alcotest.fail "expected the AutoTVM record to survive")

(* Appenders racing repeated compactions: with k large enough that
   nothing is ever eligible for dropping, no record may be lost — a
   rename that strands a concurrent write would lose one. *)
let test_compaction_vs_appender_race () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let repo = Shard.open_dir ~k:10_000 dir in
      let space = space_of (gemm ~m:64 ~n:64 ~k:64) in
      let n_appenders = 4 and per_appender = 40 in
      let appenders =
        List.init n_appenders (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per_appender do
                  Shard.add repo
                    (record_of ~seed:((d * 1000) + i)
                       ~best:(float_of_int ((d * 1000) + i))
                       space)
                done))
      in
      for _ = 1 to 20 do
        ignore (Shard.compact_all repo)
      done;
      List.iter Domain.join appenders;
      ignore (Shard.compact_all repo);
      let reloaded = Shard.open_dir dir in
      check_int "reload has no issues" 0 (List.length (Shard.issues reloaded));
      check_int "no record lost to the race" (n_appenders * per_appender)
        (Shard.count reloaded))

(* --- wire protocol --- *)

let gen_key =
  let open QCheck.Gen in
  let str = string_size (int_range 0 12) in
  let dims = list_size (int_range 0 4) (int_range 1 4096) in
  map
    (fun (graph, (op, (tgt, (spatial, reduce)))) ->
      { Record.graph; op; target = tgt; spatial; reduce })
    (pair str (pair str (pair str (pair dims dims))))

let gen_record =
  let open QCheck.Gen in
  let finite_float =
    map
      (fun (mant, exp) -> Float.ldexp mant (exp - 30))
      (pair (float_bound_inclusive 1.) (int_range 0 60))
  in
  map
    (fun (key, (method_name, (seed, (best_value, (sim_time_s, (n_evals, config)))))) ->
      {
        Record.key;
        method_name;
        seed;
        best_value;
        sim_time_s;
        n_evals;
        config;
        source = "analytical";
      })
    (pair gen_key
       (pair (string_size (int_range 0 10))
          (pair nat
             (pair finite_float
                (pair finite_float (pair nat (string_size (int_range 0 40))))))))

let gen_request =
  let open QCheck.Gen in
  oneof
    [ return Protocol.Ping;
      return Protocol.Stats;
      map
        (fun (key, m) -> Protocol.Best { key; method_name = m })
        (pair gen_key (opt (string_size (int_range 0 8))));
      map
        (fun ((key, m), limit) -> Protocol.Nearest { key; method_name = m; limit })
        (pair (pair gen_key (opt (string_size (int_range 0 8)))) (int_range 0 10));
      map (fun r -> Protocol.Append r) gen_record ]

let gen_response =
  let open QCheck.Gen in
  oneof
    [ return Protocol.Pong;
      return Protocol.Appended;
      map (fun r -> Protocol.Hit r) (opt gen_record);
      map (fun rs -> Protocol.Neighbors rs) (list_size (int_range 0 5) gen_record);
      map
        (fun (count, shards) -> Protocol.Stats_reply { count; shards })
        (pair nat nat);
      map (fun m -> Protocol.Error m) (string_size (int_range 0 30)) ]

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"every request roundtrips the wire" ~count:300
    (QCheck.make gen_request) (fun req ->
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Ok parsed -> parsed = req
      | Error _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"every response roundtrips the wire" ~count:300
    (QCheck.make gen_response) (fun resp ->
      match Protocol.response_of_string (Protocol.response_to_string resp) with
      | Ok parsed -> parsed = resp
      | Error _ -> false)

let test_protocol_rejects_garbage () =
  List.iter
    (fun text ->
      check_bool ("request rejects " ^ text) true
        (Result.is_error (Protocol.request_of_string text));
      check_bool ("response rejects " ^ text) true
        (Result.is_error (Protocol.response_of_string text)))
    [ ""; "not json"; "{}"; "{\"req\":\"no-such\"}"; "[1]" ]

let test_frame_roundtrip_and_cap () =
  let path = Filename.temp_file "ft_svc_frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Protocol.write_frame oc "hello";
      Protocol.write_frame oc "";
      Protocol.write_frame oc (String.make 70_000 'x');
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (match Protocol.read_frame ic with
          | Ok p -> check_string "payload" "hello" p
          | Error e -> Alcotest.fail e);
          (match Protocol.read_frame ic with
          | Ok p -> check_string "empty payload" "" p
          | Error e -> Alcotest.fail e);
          (match Protocol.read_frame ic with
          | Ok p -> check_int "big payload" 70_000 (String.length p)
          | Error e -> Alcotest.fail e);
          check_bool "clean EOF is an error, not a hang" true
            (Result.is_error (Protocol.read_frame ic)));
      (* an absurd length prefix must be rejected before allocation *)
      let oc = open_out_bin path in
      output_string oc "999999999999\npayload";
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          check_bool "oversized frame rejected" true
            (Result.is_error (Protocol.read_frame ic))))

let test_parse_addr () =
  (match Protocol.parse_addr "127.0.0.1:4820" with
  | Ok (Unix.ADDR_INET (_, port)) -> check_int "host:port" 4820 port
  | _ -> Alcotest.fail "expected an inet addr");
  (match Protocol.parse_addr ":0" with
  | Ok (Unix.ADDR_INET (_, 0)) -> ()
  | _ -> Alcotest.fail ":PORT should be loopback");
  (match Protocol.parse_addr "unix:/tmp/x.sock" with
  | Ok (Unix.ADDR_UNIX path) -> check_string "unix path" "/tmp/x.sock" path
  | _ -> Alcotest.fail "expected a unix addr");
  List.iter
    (fun bad ->
      check_bool ("rejects " ^ bad) true
        (Result.is_error (Protocol.parse_addr bad)))
    [ ""; "nonsense:notaport"; "unix:" ]

(* --- daemon end-to-end --- *)

let with_server ?k f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let repo = Shard.open_dir ?k dir in
      let server = Server.create ~repo ~listen:"127.0.0.1:0" in
      let _t = Server.start server in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () -> f repo (Server.address server)))

let with_client addr f =
  match Client.connect addr with
  | Error msg -> Alcotest.fail ("connect: " ^ msg)
  | Ok client -> Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let test_server_basic_requests () =
  with_server (fun repo addr ->
      with_client addr (fun client ->
          (match Client.ping client with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          let space = space_of (gemm ~m:64 ~n:64 ~k:64) in
          let key = Record.key_of_space space in
          (match Client.best_exact ~method_name:"Q-method" client key with
          | Ok None -> ()
          | Ok (Some _) -> Alcotest.fail "empty store must miss"
          | Error e -> Alcotest.fail e);
          let record = record_of ~best:42. space in
          (match Client.append client record with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          check_int "server indexed the append" 1 (Shard.count repo);
          (* the remote hit must be byte-identical to the local lookup *)
          (match Client.best_exact ~method_name:"Q-method" client key with
          | Ok (Some remote) ->
              let local =
                Option.get (Shard.best_exact ~method_name:"Q-method" repo key)
              in
              check_string "remote bytes == local bytes"
                (Record.to_json local) (Record.to_json remote)
          | Ok None -> Alcotest.fail "expected a hit"
          | Error e -> Alcotest.fail e);
          (* nearest over the wire *)
          (match Client.append client (record_of ~best:7. (space_of (gemm ~m:128 ~n:128 ~k:128))) with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          (match Client.nearest ~method_name:"Q-method" client key with
          | Ok [ near ] ->
              check_string "neighbor shape" "gemm_128x128x128" near.Record.key.graph
          | Ok l -> Alcotest.fail (Printf.sprintf "expected 1 neighbor, got %d" (List.length l))
          | Error e -> Alcotest.fail e);
          match Client.stats client with
          | Ok (count, shards) ->
              check_int "stats count" 2 count;
              check_int "stats shards" 1 shards
          | Error e -> Alcotest.fail e))

(* A malformed payload must produce an Error response and leave the
   connection usable — a typo in one client must not kill its session. *)
let test_server_survives_malformed_request () =
  with_server (fun _repo addr ->
      let sockaddr = Result.get_ok (Protocol.parse_addr addr) in
      let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
      Unix.connect fd sockaddr;
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Protocol.write_frame oc "this is not json";
          (match Protocol.read_frame ic with
          | Ok payload -> (
              match Protocol.response_of_string payload with
              | Ok (Protocol.Error _) -> ()
              | _ -> Alcotest.fail "expected an Error response")
          | Error e -> Alcotest.fail e);
          Protocol.write_frame oc (Protocol.request_to_string Protocol.Ping);
          match Protocol.read_frame ic with
          | Ok payload ->
              check_bool "connection survived" true
                (Protocol.response_of_string payload = Ok Protocol.Pong)
          | Error e -> Alcotest.fail e))

let test_concurrent_clients () =
  with_server (fun repo addr ->
      let n_clients = 8 and per_client = 25 in
      let failures = Atomic.make 0 in
      let domains =
        List.init n_clients (fun d ->
            Domain.spawn (fun () ->
                with_client addr (fun client ->
                    for i = 1 to per_client do
                      let m = 32 * (1 + (d mod 3)) in
                      let record =
                        record_of ~seed:((d * 1000) + i)
                          ~best:(float_of_int ((d * 1000) + i))
                          (space_of (gemm ~m ~n:m ~k:m))
                      in
                      (match Client.append client record with
                      | Ok () -> ()
                      | Error _ -> Atomic.incr failures);
                      match Client.best_exact client record.Record.key with
                      | Ok (Some _) -> ()
                      | _ -> Atomic.incr failures
                    done)))
      in
      List.iter Domain.join domains;
      check_int "no request failed" 0 (Atomic.get failures);
      check_int "every append indexed" (n_clients * per_client) (Shard.count repo))

(* --- satellite regression: the accept loop's failure policy --- *)

(* Pure decision table, testable without provoking real EINTR or fd
   storms: the old loop matched only EINTR while running, so a stray
   ECONNABORTED killed the accept thread and EMFILE ended accepting
   forever. *)
let test_accept_decision_policy () =
  let check_decision what expected err =
    check_bool what true (Server.accept_decision ~stopping:false err = expected)
  in
  check_decision "EINTR retries immediately" Server.Retry Unix.EINTR;
  check_decision "ECONNABORTED retries immediately" Server.Retry
    Unix.ECONNABORTED;
  (match Server.accept_decision ~stopping:false Unix.EMFILE with
  | Server.Backoff s -> check_bool "EMFILE backs off, does not spin" true (s > 0.)
  | _ -> Alcotest.fail "EMFILE must back off, not die");
  (match Server.accept_decision ~stopping:false Unix.ENFILE with
  | Server.Backoff s -> check_bool "ENFILE backs off" true (s > 0.)
  | _ -> Alcotest.fail "ENFILE must back off, not die");
  (match Server.accept_decision ~stopping:false Unix.ENOMEM with
  | Server.Log_and_retry s ->
      check_bool "unexpected errors pause before retrying" true (s > 0.)
  | _ -> Alcotest.fail "unexpected errors must be logged and survived");
  (* while stopping, every accept failure (EBADF from the closed
     listen fd included) just ends the loop *)
  List.iter
    (fun err ->
      check_bool "stopping always stops" true
        (Server.accept_decision ~stopping:true err = Server.Stop))
    [ Unix.EBADF; Unix.EINTR; Unix.EMFILE; Unix.ENOMEM ]

(* A burst of connections that immediately drop must leave the accept
   loop alive for a well-behaved client afterwards. *)
let test_accept_survives_connection_burst () =
  with_server (fun _repo addr ->
      let sockaddr = Result.get_ok (Protocol.parse_addr addr) in
      for _ = 1 to 50 do
        let fd =
          Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0
        in
        Unix.connect fd sockaddr;
        Unix.close fd
      done;
      with_client addr (fun client ->
          match Client.ping client with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("accept loop died after burst: " ^ e)))

(* --- satellite regression: client poisoning after transport loss --- *)

(* A fake daemon scripted frame-by-frame, to desync and to garble at
   will. *)
let with_scripted_server script f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 4;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  let server =
    Thread.create
      (fun () ->
        let client, _ = Unix.accept fd in
        let ic = Unix.in_channel_of_descr client
        and oc = Unix.out_channel_of_descr client in
        (try script ic oc with _ -> ());
        (try Unix.close client with Unix.Unix_error _ -> ()))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close fd)
    (fun () -> f (Printf.sprintf "127.0.0.1:%d" port))

(* A truncated frame (transport died mid-response) leaves the stream
   desynced: the client must poison itself — every later call fails
   fast instead of reading garbage as a response to the wrong
   request. *)
let test_client_poisoned_after_truncated_frame () =
  with_scripted_server
    (fun ic oc ->
      ignore (Protocol.read_frame ic);
      (* promise 100 bytes, deliver 3, vanish *)
      output_string oc "100\nabc";
      flush oc)
    (fun addr ->
      with_client addr (fun client ->
          let contains needle msg =
            let lowered = String.lowercase_ascii msg in
            let n = String.length lowered and m = String.length needle in
            let rec scan i =
              i + m <= n && (String.sub lowered i m = needle || scan (i + 1))
            in
            scan 0
          in
          let first =
            match Client.ping client with
            | Ok () -> Alcotest.fail "a truncated frame cannot be a pong"
            | Error msg -> msg
          in
          check_bool "not poisoned at connect: the call reached the server" true
            (contains "truncated frame" first);
          check_bool "transport failure must poison the client" true
            (contains "poisoned" first);
          match Client.ping client with
          | Ok () -> Alcotest.fail "a poisoned client must not roundtrip"
          | Error msg ->
              (* a second roundtrip would have read "connection closed" *)
              check_string "later calls fail fast, naming the poisoning" first msg))

(* A complete-but-unparseable frame is NOT a transport failure: frame
   boundaries held, so the connection stays usable. *)
let test_client_survives_garbage_frame () =
  with_scripted_server
    (fun ic oc ->
      ignore (Protocol.read_frame ic);
      Protocol.write_frame oc "this is not json";
      ignore (Protocol.read_frame ic);
      Protocol.write_frame oc (Protocol.response_to_string Protocol.Pong))
    (fun addr ->
      with_client addr (fun client ->
          (match Client.ping client with
          | Ok () -> Alcotest.fail "garbage cannot be a pong"
          | Error _ -> ());
          (* garbage in one frame does not poison *)
          match Client.ping client with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("connection should have survived: " ^ e)))

(* --- satellite regression: unix-socket claiming --- *)

(* A second daemon pointed at a live daemon's socket must refuse —
   the old behaviour silently unlinked the path, orphaning the first
   daemon (still accepting, but unreachable forever). *)
let test_second_daemon_refuses_live_socket () =
  let dir = temp_dir () in
  let sock = Filename.temp_file "ft_svc_live" ".sock" in
  Sys.remove sock;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let repo = Shard.open_dir dir in
      let first = Server.create ~repo ~listen:("unix:" ^ sock) in
      let _t = Server.start first in
      Fun.protect
        ~finally:(fun () -> Server.stop first)
        (fun () ->
          with_client ("unix:" ^ sock) (fun client ->
              check_bool "the socket is live" true (Client.ping client = Ok ()));
          (match Server.create ~repo ~listen:("unix:" ^ sock) with
          | exception Failure _ -> ()
          | second ->
              Server.stop second;
              Alcotest.fail "a second daemon must refuse a live socket");
          (* the refusal must not have disturbed the first daemon *)
          with_client ("unix:" ^ sock) (fun client ->
              match Client.ping client with
              | Ok () -> ()
              | Error e -> Alcotest.fail ("first daemon harmed: " ^ e))))

(* A stale socket file — its daemon died without unlinking — is
   provably dead (connect refused) and must be recycled. *)
let test_stale_socket_recycled () =
  let dir = temp_dir () in
  let sock = Filename.temp_file "ft_svc_stale" ".sock" in
  Sys.remove sock;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      (* leave a bound-but-dead socket file behind, as a crash would *)
      let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind dead (Unix.ADDR_UNIX sock);
      Unix.close dead;
      check_bool "a dead socket refuses connections" true
        (Result.is_error (Client.connect ("unix:" ^ sock)));
      let repo = Shard.open_dir dir in
      let server = Server.create ~repo ~listen:("unix:" ^ sock) in
      let _t = Server.start server in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          with_client ("unix:" ^ sock) (fun client ->
              match Client.ping client with
              | Ok () -> ()
              | Error e -> Alcotest.fail e)))

(* A path that exists but is not a socket is never touched. *)
let test_non_socket_path_never_touched () =
  let path = Filename.temp_file "ft_svc_notasock" ".txt" in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match Server.create ~repo:(Shard.open_dir dir) ~listen:("unix:" ^ path) with
      | server ->
          Server.stop server;
          Alcotest.fail "claiming a non-socket path must refuse"
      | exception Failure _ -> ());
      check_bool "the file survives the refusal" true (Sys.file_exists path))

(* --- optimize against the daemon --- *)

let search_with ?remote ?(reuse = false) graph =
  let options = { Flextensor.default_options with n_trials = 12 } in
  Flextensor.optimize ~options ?remote ~reuse graph target

let test_optimize_remote_reuse () =
  with_server (fun _repo addr ->
      with_client addr (fun client ->
          let cold = search_with ~remote:client (gemm ~m:64 ~n:64 ~k:64) in
          check_bool "cold run searched" true
            (cold.provenance = Flextensor.Searched);
          let warm = search_with ~remote:client ~reuse:true (gemm ~m:64 ~n:64 ~k:64) in
          check_bool "remote exact hit reused" true
            (warm.provenance = Flextensor.Reused);
          check_int "zero fresh measurements" 0 warm.n_evals;
          check_bool "bit-for-bit value" true
            (Int64.equal
               (Int64.bits_of_float cold.perf_value)
               (Int64.bits_of_float warm.perf_value));
          (* a different shape warm-starts from the daemon's records *)
          let near = search_with ~remote:client ~reuse:true (gemm ~m:128 ~n:128 ~k:128) in
          match near.provenance with
          | Flextensor.Transferred n -> check_bool "remote transfer seeds" true (n > 0)
          | _ -> Alcotest.fail "expected a remote warm start"))

(* The library contract: mid-run transport failures degrade into
   misses.  A search against a stopped daemon must still complete
   (cold), bit-for-bit equal to a search with no repository at all. *)
let test_dead_daemon_degrades () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let repo = Shard.open_dir dir in
      let server = Server.create ~repo ~listen:"127.0.0.1:0" in
      let _t = Server.start server in
      let client =
        match Client.connect (Server.address server) with
        | Ok c -> c
        | Error e -> Alcotest.fail e
      in
      Server.stop server;
      let dead = search_with ~remote:client ~reuse:true (gemm ~m:64 ~n:64 ~k:64) in
      Client.close client;
      let cold = search_with (gemm ~m:64 ~n:64 ~k:64) in
      check_bool "degraded to a cold search" true
        (dead.provenance = Flextensor.Searched);
      check_bool "bit-for-bit the cold result" true
        (Int64.equal
           (Int64.bits_of_float dead.perf_value)
           (Int64.bits_of_float cold.perf_value));
      check_bool "same config" true
        (Ft_schedule.Config.equal dead.config cold.config))

let test_unix_socket_transport () =
  let dir = temp_dir () in
  let sock = Filename.temp_file "ft_svc" ".sock" in
  Sys.remove sock;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let repo = Shard.open_dir dir in
      let server = Server.create ~repo ~listen:("unix:" ^ sock) in
      let _t = Server.start server in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          with_client ("unix:" ^ sock) (fun client ->
              match Client.ping client with
              | Ok () -> ()
              | Error e -> Alcotest.fail e)))

let () =
  Alcotest.run "ft_store_service"
    [
      ( "atomic append",
        [
          Alcotest.test_case "big lines, concurrent domains" `Quick
            test_concurrent_big_appends_atomic;
          Alcotest.test_case "append stress" `Quick test_concurrent_append_stress;
        ] );
      ( "index",
        [ QCheck_alcotest.to_alcotest qcheck_index_matches_fold;
          QCheck_alcotest.to_alcotest qcheck_nearest_matches_reference ] );
      ( "shard",
        [
          Alcotest.test_case "op id pinned" `Quick test_op_id_pinned;
          Alcotest.test_case "roundtrip and reload" `Quick
            test_shard_roundtrip_and_reload;
          Alcotest.test_case "compaction best-k" `Quick test_compaction_keeps_best_k;
          Alcotest.test_case "compaction vs appenders" `Quick
            test_compaction_vs_appender_race;
        ] );
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_protocol_rejects_garbage;
          Alcotest.test_case "framing" `Quick test_frame_roundtrip_and_cap;
          Alcotest.test_case "addresses" `Quick test_parse_addr;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "basic requests" `Quick test_server_basic_requests;
          Alcotest.test_case "malformed request" `Quick
            test_server_survives_malformed_request;
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "unix socket" `Quick test_unix_socket_transport;
        ] );
      ( "accept loop",
        [
          Alcotest.test_case "failure policy" `Quick test_accept_decision_policy;
          Alcotest.test_case "survives a connection burst" `Quick
            test_accept_survives_connection_burst;
        ] );
      ( "client poisoning",
        [
          Alcotest.test_case "truncated frame poisons" `Quick
            test_client_poisoned_after_truncated_frame;
          Alcotest.test_case "garbage frame does not" `Quick
            test_client_survives_garbage_frame;
        ] );
      ( "socket claiming",
        [
          Alcotest.test_case "live socket refused" `Quick
            test_second_daemon_refuses_live_socket;
          Alcotest.test_case "stale socket recycled" `Quick
            test_stale_socket_recycled;
          Alcotest.test_case "non-socket never touched" `Quick
            test_non_socket_path_never_touched;
        ] );
      ( "remote reuse",
        [
          Alcotest.test_case "exact hit and transfer" `Quick
            test_optimize_remote_reuse;
          Alcotest.test_case "dead daemon degrades" `Quick
            test_dead_daemon_degrades;
        ] );
    ]
