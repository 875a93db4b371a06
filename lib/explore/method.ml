(* The search methods: one fixed table, each row a [Search_loop]
   policy's entry point under a short CLI key and its stable
   [method_name].  Consumers (the [optimize] facade, the CLI, the DNN
   runner, the benches) dispatch through [find]/[all], so adding a
   search method is a policy module plus one row here.

   [name] is persisted in tuning-log records ([Ft_store]); renaming a
   method silently orphans every stored schedule, so names never
   change — see DESIGN.md §10. *)

type t = {
  key : string;  (* short CLI alias, e.g. "q" *)
  name : string;  (* stable persisted method_name, e.g. "Q-method" *)
  description : string;
  search : Search_loop.params -> Ft_schedule.Space.t -> Driver.result;
}

(* Table order is presentation order (CLI listing, bench columns). *)
let all =
  [
    {
      key = "q";
      name = "Q-method";
      description =
        "SA starting points + Q-network direction selection (the paper's \
         full back-end, §5.1)";
      search = Q_method.search_params;
    };
    {
      key = "p";
      name = "P-method";
      description =
        "SA starting points with exhaustive direction evaluation (§6.5)";
      search = P_method.search_params;
    };
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
    {
      key = "cd";
      name = "CD-method";
      description =
        "coordinate descent: greedy single-knob refinement of the incumbent";
      search = Cd_method.search_params;
    };
    {
      key = "autotvm";
      name = "AutoTVM";
      description =
        "template-restricted GBT-guided tuning (mainline divisor-knob \
         templates)";
      search = Autotvm.search_params ~template:`Divisor;
    };
    {
      key = "autotvm-2019";
      name = "AutoTVM-2019";
      description =
        "AutoTVM with the paper-era 2019 templates (no virtual threading, \
         snapped knobs)";
      search = Autotvm.search_params ~template:`Paper_era;
    };
  ]

let find s =
  match List.find_opt (fun m -> String.equal m.name s) all with
  | Some _ as hit -> hit
  | None -> List.find_opt (fun m -> String.equal m.key s) all

let find_exn s =
  match find s with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "unknown search method %S (known: %s)" s
           (String.concat ", " (List.map (fun m -> m.name) all)))
