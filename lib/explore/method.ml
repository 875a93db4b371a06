(* The search-method registry: every back-end — built-in or external —
   is one [t] registered under a short CLI key and its stable
   [method_name].  Consumers (the [optimize] facade, the CLI, the DNN
   runner, the benches) dispatch through [find]/[list], so adding a
   search method is a single-file change: write the policy, register
   it.

   [name] is persisted in tuning-log records ([Ft_store]); renaming a
   registered method silently orphans every stored schedule, so names
   are append-only — see DESIGN.md §10. *)

type t = {
  key : string;  (* short CLI alias, e.g. "q" *)
  name : string;  (* stable persisted method_name, e.g. "Q-method" *)
  description : string;
  search : Search_loop.params -> Ft_schedule.Space.t -> Driver.result;
}

(* Registration order is presentation order (CLI listing, bench
   columns), so keep it deterministic with a list, not a table. *)
let registry : t list ref = ref []

let register m =
  List.iter
    (fun r ->
      if String.equal r.key m.key || String.equal r.name m.name then
        invalid_arg
          (Printf.sprintf "Method.register: %S/%S collides with %S/%S" m.key
             m.name r.key r.name))
    !registry;
  registry := !registry @ [ m ]

let list () = !registry
let names () = List.map (fun m -> m.name) !registry

let find s =
  match List.find_opt (fun m -> String.equal m.name s) !registry with
  | Some _ as hit -> hit
  | None -> List.find_opt (fun m -> String.equal m.key s) !registry

let find_exn s =
  match find s with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "unknown search method %S (known: %s)" s
           (String.concat ", " (names ())))

(* The built-in methods.  This module is the registry, so registering
   them here keeps them linked whenever any consumer resolves a name
   (dune only links modules that are referenced). *)
let () =
  register
    {
      key = "q";
      name = "Q-method";
      description =
        "SA starting points + Q-network direction selection (the paper's \
         full back-end, §5.1)";
      search = Q_method.search_params;
    };
  register
    {
      key = "p";
      name = "P-method";
      description =
        "SA starting points with exhaustive direction evaluation (§6.5)";
      search = P_method.search_params;
    };
  register
    {
      key = "random";
      name = "random";
      description = "uniform random sampling — the ablation floor";
      (* The historical [optimize] budget: [n_trials * n_starts] raw
         draws, since random has no per-trial expansion. *)
      search =
        (fun p space ->
          Random_method.search_params
            { p with n_trials = p.n_trials * Search_loop.n_starts }
            space);
    };
  register
    {
      key = "cd";
      name = "CD-method";
      description =
        "coordinate descent: greedy single-knob refinement of the incumbent";
      search = Cd_method.search_params;
    }
