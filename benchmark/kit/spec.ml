(* What each workload runs.  Every input is a pure function of the
   workload seed.

   A workload is a stream of cycles.  Each cycle holds the workload's
   whole job mix once, in its own seeded order and with fresh search
   seeds, and a run measures whole cycles only: the mix is then the same
   for every seed and every run length, and what varies between seeds
   is the search trajectories, not which operators happened to be
   drawn. *)

module Rng = Ft_util.Rng
module Record = Flextensor.Store_record

type graph_ref =
  | Suite of string * int  (* Table-3 family abbreviation, case index *)
  | Small of int  (* index into [small_shapes] *)
  | Op of string * int list  (* Fleet_task.graph_of operator and dims *)

type kind = Search | Hit | Miss

type job = { graph : graph_ref; target : string; kind : kind; seed : int }

(* -- Graphs ------------------------------------------------------------ *)

(* The shapes `bench model` times: one compiled run of each lands in
   about 0.5-10 ms.  Within each operator the first is the smallest,
   which is the one `ftbench run` verifies point by point. *)
let small_shapes =
  let open Ft_ir.Operators in
  [|
    gemm ~m:32 ~n:32 ~k:32; gemm ~m:48 ~n:48 ~k:48; gemm ~m:64 ~n:32 ~k:48;
    gemm ~m:64 ~n:64 ~k:64;
    gemv ~m:256 ~k:256; gemv ~m:512 ~k:256; gemv ~m:256 ~k:512; gemv ~m:512 ~k:512;
    conv1d ~batch:1 ~in_channels:8 ~out_channels:8 ~length:64 ~kernel:3 ();
    conv1d ~batch:1 ~in_channels:16 ~out_channels:16 ~length:64 ~kernel:3 ();
    conv1d ~batch:1 ~in_channels:16 ~out_channels:16 ~length:128 ~kernel:3 ();
    conv1d ~batch:1 ~in_channels:32 ~out_channels:16 ~length:128 ~kernel:3 ();
    conv2d ~batch:1 ~in_channels:4 ~out_channels:8 ~height:16 ~width:16 ~kernel:3 ();
    conv2d ~batch:1 ~in_channels:8 ~out_channels:8 ~height:16 ~width:16 ~kernel:3 ();
    conv2d ~batch:1 ~in_channels:8 ~out_channels:16 ~height:16 ~width:16 ~kernel:3 ();
    conv2d ~batch:1 ~in_channels:16 ~out_channels:16 ~height:16 ~width:16 ~kernel:3 ();
  |]

let verified_shapes = [ 0; 4; 8; 12 ]

let graph = function
  | Suite (abbr, i) -> (List.nth (Ft_workloads.Suites.find abbr) i).Ft_workloads.Suites.graph
  | Small i -> small_shapes.(i)
  | Op (op, dims) -> (
      match Flextensor.Fleet_task.graph_of ~op ~dims with
      | Ok g -> g
      | Error msg -> invalid_arg msg)

let target key =
  match Flextensor.Fleet_task.target_of key with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let space (job : job) = Flextensor.Space.make (graph job.graph) (target job.target)

let describe = function
  | Suite (abbr, i) -> Printf.sprintf "%s[%d]" abbr i
  | Small i -> Printf.sprintf "small[%d]" i
  | Op (op, dims) -> op ^ "_" ^ String.concat "x" (List.map string_of_int dims)

(* -- Job mixes ---------------------------------------------------------- *)

(* One case per Table-3 family for the Q-method (the middle one by
   size), the smallest and largest for the P-method. *)
let suite_pairs ~cases ~targets =
  List.concat_map
    (fun (abbr, family) ->
      let n = List.length family in
      List.concat_map
        (fun i -> List.map (fun target -> (Suite (abbr, i), target)) targets)
        (List.sort_uniq compare (cases n)))
    Ft_workloads.Suites.all

(* Smoke runs keep every [stride]-th entry of a mix. *)
let thin ~smoke stride xs =
  if smoke then List.filteri (fun i _ -> i mod stride = 0) xs else xs

let shuffled rng xs =
  let a = Array.of_list xs in
  Rng.shuffle rng a;
  Array.to_list a

let search_seed rng = Rng.int rng 0x3FFF_FFFF

let fixed_mix rng pairs =
  List.map
    (fun (graph, target) -> { graph; target; kind = Search; seed = search_seed rng })
    (shuffled rng pairs)

(* -- The reuse workload's tuning log ------------------------------------ *)

(* Logged shapes sit on a coarse grid and requested-but-unlogged shapes
   off it, so a miss can never be an exact hit: logged gemm extents are
   multiples of 32 and a miss has an odd multiple of 16 for m; logged
   conv2d channel counts are multiples of 16 and a miss has an odd
   multiple of 8 input channels. *)
let gemm_dims rng ~miss =
  let pick step n = step * (1 + Rng.int rng n) in
  let m = if miss then 16 * ((2 * Rng.int rng 32) + 1) else pick 32 32 in
  [ m; pick 32 32; pick 32 32 ]

let conv2d_dims rng ~miss =
  let cin = if miss then 8 * ((2 * Rng.int rng 32) + 1) else 16 * (1 + Rng.int rng 32) in
  let cout = 16 * (1 + Rng.int rng 32) in
  let hw = Rng.choose_array rng [| 7; 14; 28; 56 |] in
  let kernel = Rng.choose_array rng [| 1; 3 |] in
  [ 1; cin; cout; hw; hw; kernel ]

let draw_op rng ~miss i =
  if i mod 2 = 0 then Op ("gemm", gemm_dims rng ~miss)
  else Op ("conv2d", conv2d_dims rng ~miss)

(* [n] distinct shapes, alternating gemm and conv2d. *)
let distinct_shapes rng ~miss ~seen n =
  let rec go acc i =
    if i = n then List.rev acc
    else
      let shape = draw_op rng ~miss i in
      if Hashtbl.mem seen shape then go acc i
      else begin
        Hashtbl.add seen shape ();
        go (shape :: acc) (i + 1)
      end
  in
  go [] 0

let log_records ~smoke = if smoke then 400 else 20_000
let records_per_shape = 2

(* The reuse workload's search: exact hits must match the logged
   records' method. *)
let reuse_search = "Q-method"
let reuse_max_evals = 100

let logged_shapes ~seed ~smoke =
  distinct_shapes (Rng.stream seed 1) ~miss:false ~seen:(Hashtbl.create 1024)
    (log_records ~smoke / records_per_shape)

(* The log itself: [records_per_shape] random valid configs per logged
   shape on v100, valued by the cost model, in seeded order. *)
let log ~seed ~smoke =
  let rng = Rng.stream seed 2 in
  let v100 = target "v100" in
  let records =
    List.concat_map
      (fun shape ->
        let space = Flextensor.Space.make (graph shape) v100 in
        let key = Record.key_of_space space in
        List.init records_per_shape (fun _ ->
            let rec valid_config attempts =
              let cfg = Flextensor.Space.random_config rng space in
              let perf = Ft_hw.Cost.evaluate space cfg in
              if perf.Ft_hw.Perf.valid || attempts = 0 then (cfg, perf)
              else valid_config (attempts - 1)
            in
            let cfg, perf = valid_config 50 in
            {
              Record.key;
              method_name = reuse_search;
              seed = search_seed rng;
              best_value = Ft_hw.Cost.perf_value space perf;
              sim_time_s = 1.0;
              n_evals = reuse_max_evals;
              config = Flextensor.Config_io.to_string cfg;
              source = "analytical";
            }))
      (logged_shapes ~seed ~smoke)
  in
  shuffled rng records


(* -- Workloads ---------------------------------------------------------- *)

type t = {
  name : string;
  search : string;  (* registered search method *)
  max_evals : int;
  lanes : int;  (* domain-pool size, -j *)
  measured : bool;  (* winners timed through Sandbox.measurer *)
  reuse : bool;  (* requests served through a loaded tuning log *)
  quality_cycles : int;  (* cycles every run measures: search quality is taken over them *)
  stream : seed:int -> smoke:bool -> unit -> job list;  (* next cycle *)
}

let fixed_stream pairs ~seed ~smoke:_ =
  let rng = Rng.stream seed 0 in
  fun () -> fixed_mix rng pairs

let q_search =
  { name = "q_search"; search = "Q-method"; max_evals = 250; lanes = 2;
    measured = false; reuse = false; quality_cycles = 4;
    stream =
      (fun ~seed ~smoke ->
        fixed_stream ~seed ~smoke
          (thin ~smoke 6
             (suite_pairs ~cases:(fun n -> [ n / 2 ]) ~targets:[ "v100"; "xeon" ])));
  }

let p_search =
  { name = "p_search"; search = "P-method"; max_evals = 3000; lanes = 2;
    measured = false; reuse = false; quality_cycles = 8;
    stream =
      (fun ~seed ~smoke ->
        fixed_stream ~seed ~smoke
          (thin ~smoke 12
             (suite_pairs ~cases:(fun n -> [ 0; n - 1 ])
                ~targets:[ "v100"; "xeon"; "vu9p" ])));
  }

(* -j 1: the sandbox forks, and OCaml refuses to fork once a second
   domain has existed in the process. *)
let measure =
  { name = "measure"; search = "Q-method"; max_evals = 100; lanes = 1;
    measured = true; reuse = false; quality_cycles = 8;
    stream =
      (fun ~seed ~smoke ->
        fixed_stream ~seed ~smoke
          (thin ~smoke 4
             (List.init (Array.length small_shapes) (fun i -> (Small i, "xeon")))));
  }

(* Three exact hits on logged shapes per miss on a new shape.  The new
   shapes come from one seed-independent sequence, so the k-th cycle
   of every seed asks for the same ones: which shapes happened to be
   drawn would otherwise move the winners' geomean more than the
   search does. *)
let reuse_stream ~seed ~smoke =
  let rng = Rng.stream seed 0 in
  let logged = Array.of_list (logged_shapes ~seed ~smoke) in
  let new_shapes = Rng.create 0 and seen = Hashtbl.create 256 in
  let hits, misses = if smoke then (6, 2) else (24, 8) in
  fun () ->
    let hit_jobs =
      List.init hits (fun _ ->
          { graph = Rng.choose_array rng logged; target = "v100"; kind = Hit; seed = 0 })
    in
    let miss_jobs =
      List.map
        (fun graph -> { graph; target = "v100"; kind = Miss; seed = search_seed rng })
        (distinct_shapes new_shapes ~miss:true ~seen misses)
    in
    shuffled rng (hit_jobs @ miss_jobs)

let reuse =
  { name = "reuse"; search = reuse_search; max_evals = reuse_max_evals; lanes = 2;
    measured = false; reuse = true; quality_cycles = 16;
    stream = reuse_stream }

let all = [ q_search; p_search; measure; reuse ]
let find name = List.find_opt (fun w -> w.name = name) all
