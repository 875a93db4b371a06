(* The search methods: one fixed table, each row a [Search_loop]
   policy under a short CLI key and its stable name, over the space it
   is given or (the AutoTVM rows) an [Autotvm.template] of it: the
   space decides which points exist, the policy how to search them.
   Consumers (the [optimize] facade, the CLI, the DNN runner, the
   benches) dispatch through [find]/[all], so adding a search method
   is a policy plus one row here.

   [name] is written here and nowhere else: [search] runs the policy
   under it, so it is the checkpoint trail's run id, and the tuning
   log ([Ft_store]) persists it.  Renaming a method silently orphans
   every stored schedule, so names never change — see DESIGN.md §10. *)

type t = {
  key : string;  (* short CLI alias, e.g. "q" *)
  name : string;  (* stable persisted name, e.g. Q-method *)
  description : string;
  search : Search_loop.params -> Ft_schedule.Space.t -> Driver.result;
}

let row key name description policy =
  { key; name; description; search = Search_loop.run ~method_name:name policy }

(* A row whose search runs inside a template of the space it is given. *)
let in_template kind m =
  { m with search = (fun p space -> m.search p (Autotvm.template kind space)) }

(* Table order is presentation order (CLI listing, bench columns). *)
let all =
  [
    row "q" "Q-method"
      "SA starting points + Q-network direction selection (the paper's full \
       back-end, §5.1)"
      Q_method.policy;
    row "p" "P-method" "SA starting points with exhaustive direction evaluation (§6.5)"
      P_method.policy;
    (let name = "random" (* also its CLI key *) in
     let m = row name name "uniform random sampling — the ablation floor" Random_method.policy in
     (* The historical [optimize] budget: [n_trials * n_starts] raw
        draws, since random has no per-trial expansion. *)
     { m with search = (fun p -> m.search { p with n_trials = p.n_trials * Search_loop.n_starts }) });
    row "cd" "CD-method" "coordinate descent: greedy single-knob refinement of the incumbent"
      Cd_method.policy;
    in_template `Divisor
      (row "autotvm" "AutoTVM"
         "template-restricted GBT-guided tuning (mainline divisor-knob templates)"
         Autotvm.policy);
    in_template `Paper_era
      (row "autotvm-2019" "AutoTVM-2019"
         "AutoTVM with the paper-era 2019 templates (no virtual threading, \
          snapped knobs)"
         Autotvm.policy);
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
