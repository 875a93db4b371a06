open Ft_schedule

(* Ablations of the design choices DESIGN.md calls out:
   1. back-end search method at an equal measurement budget;
   2. heuristic seeding of the initial H set;
   3. producer inlining;
   4. loop-order templates (is searching the order worth it?). *)

let layers = [ "C2"; "C7"; "C13" ]

let graph_of name = Ft_workloads.Yolo.graph (Ft_workloads.Yolo.find name)

(* One column per method — a row added to the method table shows up
   here with no edit. *)
let methods_at_equal_budget () =
  Bench_common.subsection "search methods at an equal budget (200 evals, V100)";
  let methods = Ft_explore.Method.all in
  let rows =
    List.map
      (fun name ->
        let graph = graph_of name in
        name
        :: List.map
             (fun (m : Ft_explore.Method.t) ->
               Bench_common.fmt_gf
                 (Bench_common.search_method ~max_evals:200 m.name graph
                    Target.v100)
                   .best_value)
             methods)
      layers
  in
  Ft_util.Table.print
    ~header:("layer" :: List.map (fun (m : Ft_explore.Method.t) -> m.name) methods)
    rows

let heuristic_seeding () =
  Bench_common.subsection "heuristic seeding of the initial set H";
  let rows =
    List.map
      (fun name ->
        let with_seeds =
          Bench_common.search_method ~max_evals:200 "Q-method" (graph_of name)
            Target.v100
        in
        let without =
          Bench_common.search_method ~max_evals:200 ~heuristic_seeds:false
            "Q-method" (graph_of name) Target.v100
        in
        [ name; Bench_common.fmt_gf with_seeds.best_value;
          Bench_common.fmt_gf without.best_value ])
      layers
  in
  Ft_util.Table.print ~header:[ "layer"; "with seeds"; "random-only init" ] rows

let inlining () =
  Bench_common.subsection "producer (padding) inlining on the best schedule";
  let rows =
    List.map
      (fun name ->
        let space = Space.make (graph_of name) Target.v100 in
        let best =
          (Bench_common.search_method ~max_evals:200 "Q-method" (graph_of name)
             Target.v100)
            .best_config
        in
        let value inline =
          Ft_hw.Cost.perf_value space
            (Ft_hw.Cost.evaluate space { best with inline })
        in
        [ name; Bench_common.fmt_gf (value true); Bench_common.fmt_gf (value false) ])
      layers
  in
  Ft_util.Table.print ~header:[ "layer"; "inlined pad"; "materialized pad" ] rows

let order_templates () =
  Bench_common.subsection "loop-order templates on the best schedule";
  let rows =
    List.map
      (fun name ->
        let space = Space.make (graph_of name) Target.v100 in
        let best =
          (Bench_common.search_method ~max_evals:200 "Q-method" (graph_of name)
             Target.v100)
            .best_config
        in
        let values =
          List.init Space.n_orders (fun order_id ->
              Ft_hw.Cost.perf_value space
                (Ft_hw.Cost.evaluate space { best with order_id }))
        in
        name :: List.map Bench_common.fmt_gf values)
      layers
  in
  Ft_util.Table.print
    ~header:("layer" :: List.init Space.n_orders (Printf.sprintf "order %d"))
    rows

let walk_depth () =
  Bench_common.subsection "Q-method walk depth (moves per starting point, 240 evals)";
  let rows =
    List.map
      (fun name ->
        name
        :: List.map
             (fun steps ->
               Bench_common.fmt_gf
                 (Bench_common.search_method ~max_evals:240 ~steps "Q-method"
                    (graph_of name) Target.v100)
                   .best_value)
             [ 1; 2; 5; 10 ])
      ("C14" :: layers)
  in
  Ft_util.Table.print
    ~header:[ "layer"; "steps=1"; "steps=2"; "steps=5"; "steps=10" ]
    rows;
  print_endline
    "the productive walk depth is shape-dependent: very shallow walks stall\n\
     near the seeds on small-extent layers (C14), very deep ones waste the\n\
     budget; the defaults use 5 moves per starting point."

(* The §6.3 claim: FlexTensor adapts the vectorization length to the
   instruction set — 8 lanes on AVX2, 16 on AVX-512. *)
let vector_width_adaptation () =
  Bench_common.subsection "tuned vectorization length per instruction set";
  let tuned_vec target name =
    let best =
      (Bench_common.search_method ~max_evals:300 "Q-method" (graph_of name)
         target)
        .best_config
    in
    let last = best.Config.spatial.(Array.length best.Config.spatial - 1) in
    if best.Config.vectorize then last.(3) else 0
  in
  let rows =
    List.map
      (fun name ->
        [ name;
          string_of_int (tuned_vec Target.xeon_e5_2699_v4 name);
          string_of_int (tuned_vec Target.xeon_platinum_8168 name) ])
      [ "C2"; "C6"; "C10" ]
  in
  Ft_util.Table.print ~header:[ "layer"; "AVX2 (Xeon E5)"; "AVX-512 (Platinum)" ] rows;
  print_endline
    "paper: all Xeon E5 schedules use vectorization length 8 (AVX2 limit);\n\
     on an AVX-512 part the tuner picks longer vectors."

let run () =
  Bench_common.section "Ablations";
  methods_at_equal_budget ();
  heuristic_seeding ();
  inlining ();
  order_templates ();
  walk_depth ();
  vector_width_adaptation ()
