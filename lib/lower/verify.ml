(* End-to-end correctness of a schedule: run the lowered program and
   the naive reference on the same random inputs and compare outputs.
   This is the property TVM's codegen gives the paper's authors; every
   point our search visits can be checked this way. *)

(* Fixed inputs keep a check reproducible; [tol] absorbs the rounding
   that a schedule's reordered sums introduce. *)
let seed = 2020
let tol = 1e-4

let check (space : Ft_schedule.Space.t) cfg =
  if not (Ft_schedule.Space.valid space cfg) then Error "config outside space"
  else
    let graph = space.graph in
    let rng = Ft_util.Rng.create seed in
    let ref_env = Ft_interp.Reference.random_env rng graph in
    (* Bind identical inputs in a fresh environment for the program.  A
       graph whose declared input never got bound is reported by name —
       previously the lookup's exception escaped [check] uncaught. *)
    let run_env = Ft_interp.Buffer_env.create () in
    let missing =
      List.find_opt
        (fun (name, _) -> Ft_interp.Buffer_env.find_opt ref_env name = None)
        graph.inputs
    in
    match missing with
    | Some (name, _) ->
        Error (Printf.sprintf "missing tensor binding for %s" name)
    | None -> (
        List.iter
          (fun (name, shape) ->
            let buffer = Ft_interp.Buffer_env.find ref_env name in
            Ft_interp.Buffer_env.set run_env name shape
              (Ft_interp.Buffer_env.to_array buffer))
          graph.inputs;
        let expected = Ft_interp.Reference.run_graph ref_env graph in
        let program = Lowering.lower space cfg in
        match Exec.run run_env program with
        | exception Invalid_argument msg -> Error ("execution failed: " ^ msg)
        | exception Not_found ->
            (* Raised by an unguarded [Hashtbl.find]-style lookup; the
               only unbound names an execution can hit are tensors. *)
            Error
              (Printf.sprintf "execution failed: missing tensor binding (of %s)"
                 (String.concat ", " (List.map fst graph.inputs)))
        | () -> (
            match Ft_interp.Buffer_env.find_opt run_env graph.output with
            | None ->
                Error
                  (Printf.sprintf "missing tensor binding for %s" graph.output)
            | Some buffer ->
                let actual = Ft_interp.Buffer_env.to_array buffer in
                let diff = Ft_interp.Buffer_env.max_abs_diff expected actual in
                if diff <= tol then Ok ()
                else
                  Error
                    (Printf.sprintf "max abs diff %.2e exceeds %.2e" diff tol)))

