(* smoke FTBENCH BENCHMARK_JSON: run every workload of BENCHMARK.json in
   --smoke mode, untraced and traced, and check each result line: the
   run is correct (for a traced run, that includes the traced pass
   picking the untraced pass's winners bit for bit), and exactly the
   metrics BENCHMARK.json names are printed, each with its unit and a
   finite value — never 0 for an end-to-end metric. *)

module Json = Ft_store.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("smoke: " ^ msg))
    fmt

let field name json =
  match Json.member name json with Some v -> v | None -> failwith ("missing " ^ name)

let str name json = Result.get_ok (Json.to_str (field name json))

let list name json = match field name json with Json.Arr xs -> xs | _ -> failwith name

let last_line ic =
  let rec go last = match input_line ic with l -> go (Some l) | exception End_of_file -> last in
  go None

let run_ftbench exe workload trace =
  let cmd =
    Filename.quote_command exe
      [ "run"; "--workload"; workload; "--seed"; "7"; "--trace"; trace; "--smoke" ]
  in
  let ic = Unix.open_process_in cmd in
  let last = last_line ic in
  match (Unix.close_process_in ic, last) with
  | Unix.WEXITED 0, Some line -> Some line
  | _ ->
      fail "%s --trace %s: did not exit 0 with a result line" workload trace;
      None

let check_result workload trace ~positive expected line =
  match Json.of_string line with
  | Error e -> fail "%s --trace %s: unparsable result line: %s" workload trace e
  | Ok result ->
      if field "correct" result <> Json.Bool true then
        fail "%s --trace %s: correct is not true" workload trace;
      let metrics = match field "metrics" result with Json.Obj kv -> kv | _ -> [] in
      let printed = List.map fst metrics in
      let names = List.map (str "name") expected in
      if List.sort compare printed <> List.sort compare names then
        fail "%s --trace %s: printed [%s], expected [%s]" workload trace
          (String.concat " " printed) (String.concat " " names);
      List.iter
        (fun m ->
          let name = str "name" m in
          match List.assoc_opt name metrics with
          | None -> ()
          | Some v ->
              let value = Result.get_ok (Json.to_num (field "value" v)) in
              if str "unit" v <> str "unit" m then
                fail "%s: %s printed in %s, declared in %s" workload name (str "unit" v)
                  (str "unit" m);
              if not (Float.is_finite value) then fail "%s: %s is not finite" workload name;
              if positive && not (value > 0.) then fail "%s: %s is %g" workload name value)
        expected

let () =
  let exe = Sys.argv.(1) in
  let bench =
    match Json.of_string (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith e
  in
  List.iter
    (fun w ->
      let workload = str "name" w in
      Option.iter
        (check_result workload "0" ~positive:true (list "end_to_end" bench))
        (run_ftbench exe workload "0");
      Option.iter
        (check_result workload "1" ~positive:false (list "per_layer" bench))
        (run_ftbench exe workload "1"))
    (list "workloads" bench);
  if !failures > 0 then exit 1
