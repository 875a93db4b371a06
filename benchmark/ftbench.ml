(* ftbench: the repository benchmark.

     ftbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       Run workload W (default: all four, one after another).  The last
       line of standard output is the run's result as one JSON object:
       end-to-end metrics with --trace 0, per-layer metrics with
       --trace 1.  Exits 1 when a correctness check fails.

     ftbench workload W --input FILE --output FILE --spawned-at T [--setup-only]
       The workload process `run` spawns. *)

open Ftbench_kit

let usage () =
  prerr_endline
    "usage: ftbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
    \       ftbench workload W --input FILE --output FILE --spawned-at T [--setup-only]";
  exit 2

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("ftbench: " ^ msg); exit 2) fmt

(* "--flag value" pairs and bare "--flag" switches. *)
let rec parse ~switches acc = function
  | [] -> List.rev acc
  | flag :: rest when List.mem flag switches -> parse ~switches ((flag, "") :: acc) rest
  | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      parse ~switches ((flag, value) :: acc) rest
  | arg :: _ -> fail "unexpected argument %S" arg

let number name of_string default flags =
  match List.assoc_opt name flags with
  | None -> default
  | Some s -> ( match of_string s with Some v -> v | None -> fail "%s: bad value %S" name s)

let run args =
  let flags = parse ~switches:[ "--smoke" ] [] args in
  List.iter
    (fun (flag, _) ->
      if not (List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace"; "--smoke" ]) then
        fail "unknown flag %s" flag)
    flags;
  let workloads =
    match List.assoc_opt "--workload" flags with
    | None -> Spec.all
    | Some name -> (
        match Spec.find name with Some w -> [ w ] | None -> fail "unknown workload %S" name)
  in
  let trace =
    match List.assoc_opt "--trace" flags with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> fail "--trace: expected 0 or 1, got %S" v
  in
  let smoke = List.mem_assoc "--smoke" flags in
  let seconds = number "--seconds" float_of_string_opt 25. flags in
  if not (seconds > 0.) then fail "--seconds must be positive";
  Run.run
    {
      Run.workloads;
      seed = number "--seed" int_of_string_opt 2020 flags;
      (* smoke runs stop after their first cycle *)
      seconds = (if smoke then Float.epsilon else seconds);
      trace;
      smoke;
    }

let workload name args =
  let flags = parse ~switches:[ "--setup-only" ] [] args in
  let get flag =
    match List.assoc_opt flag flags with Some v -> v | None -> fail "workload: missing %s" flag
  in
  let w = match Spec.find name with Some w -> w | None -> fail "unknown workload %S" name in
  Child.main w ~input:(get "--input") ~output:(get "--output")
    ~spawned_at:(number "--spawned-at" float_of_string_opt 0. flags)
    ~setup_only:(List.mem_assoc "--setup-only" flags);
  0

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> exit (run args)
  | "workload" :: name :: args -> exit (workload name args)
  | _ -> usage ()
