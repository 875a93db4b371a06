open Ft_schedule

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v100_spec = match Target.v100 with Target.Gpu s -> s | _ -> assert false
let xeon_spec = match Target.xeon_e5_2699_v4 with Target.Cpu s -> s | _ -> assert false
let vu9p_spec = match Target.vu9p with Target.Fpga s -> s | _ -> assert false

let gemm_space target = Space.make (Ft_ir.Operators.gemm ~m:1024 ~n:1024 ~k:1024) target

(* Footprint span analysis on a known conv tile. *)
let test_footprint_spans () =
  let graph =
    Ft_ir.Operators.conv2d ~batch:1 ~in_channels:4 ~out_channels:8 ~height:16
      ~width:16 ~kernel:3 ~pad:1 ()
  in
  let node = Space.compute_node graph in
  let tiles name =
    match name with
    | "i" | "j" -> 4
    | "k" -> 2
    | "rc" -> 4
    | "rx" | "ry" -> 3
    | _ -> 1
  in
  let widths =
    Array.of_list (List.map (fun (a : Ft_ir.Op.axis) -> tiles a.axis_name) (node.spatial @ node.reduce))
  in
  let elems tensor =
    Footprint.total widths
      (List.filter (fun (r : Footprint.reads) -> r.tensor = tensor) (Footprint.compile node))
  in
  (* I.pad tile: b=1, rc=4, i+rx spans 4+3-1=6, j+ry spans 6 -> 144 *)
  check_int "input tile" 144 (elems "I.pad");
  (* W tile: k=2, rc=4, rx=3, ry=3 -> 72 *)
  check_int "weight tile" 72 (elems "W")

let test_span_arithmetic () =
  let open Ft_ir.Expr in
  let axes = [ Ft_ir.Op.axis "i" 10; Ft_ir.Op.axis "j" 10 ] in
  (* The footprint of a node reading A at [e] alone is the span of [e]. *)
  let span e =
    let node =
      { Ft_ir.Op.tag = "read"; output = "O"; spatial = axes; reduce = []; init = 0.;
        combine = Ft_ir.Op.Acc_sum; body = Access ("A", [ e ]) }
    in
    Footprint.total [| 5; 3 |] (Footprint.compile node)
  in
  check_int "var" 5 (span (v "i"));
  check_int "unknown var" 1 (span (v "x"));
  check_int "const" 1 (span (c 42));
  check_int "add" 7 (span (v "i" +: v "j"));
  check_int "scaled" 9 (span (v "i" *: c 2));
  check_int "div" 3 (span (v "i" /: c 2));
  check_int "mod" 3 (span (v "i" %: c 3))

let test_gpu_thread_limit () =
  let space = gemm_space Target.v100 in
  let cfg = Space.default_config space in
  (* 64 x 64 = 4096 threads per block: invalid *)
  cfg.spatial.(0).(0) <- 16;
  cfg.spatial.(0).(2) <- 64;
  cfg.spatial.(1).(0) <- 16;
  cfg.spatial.(1).(2) <- 64;
  let perf = Ft_hw.Cost.evaluate space cfg in
  check_bool "invalid" false perf.valid;
  check_bool "zero perf value" true (Ft_hw.Cost.perf_value space perf = 0.)

let test_gpu_shared_memory_limit () =
  let space = gemm_space Target.v100 in
  let cfg = Space.default_config space in
  (* block tile 1024x1024 at reduce depth 1024 vastly exceeds 48KB *)
  cfg.spatial.(0).(0) <- 1;
  cfg.spatial.(0).(1) <- 1024;
  cfg.spatial.(1).(0) <- 1;
  cfg.spatial.(1).(1) <- 1024;
  cfg.reduce.(0).(0) <- 1;
  cfg.reduce.(0).(2) <- 1024;
  let perf = Ft_hw.Cost.evaluate space cfg in
  check_bool "invalid" false perf.valid

let test_gpu_below_peak () =
  let rng = Ft_util.Rng.create 3 in
  let space = gemm_space Target.v100 in
  for _ = 1 to 200 do
    let perf = Ft_hw.Cost.evaluate space (Space.random_config rng space) in
    if perf.valid then
      check_bool "below peak" true (perf.gflops <= Target.peak_gflops Target.v100)
  done

let test_gpu_tuned_beats_naive () =
  let space = gemm_space Target.v100 in
  let naive = Ft_hw.Cost.evaluate space (Space.default_config space) in
  let tuned =
    Ft_hw.Cost.evaluate space
      (Heuristics.gpu_config space ~threads_per_axis:16 ~vthread:2 ~inner:2 ~rtile:8)
  in
  check_bool "tuned wins" true (tuned.gflops > 10. *. naive.gflops)

let test_gpu_flops_scale_speeds_compute () =
  let space = gemm_space Target.v100 in
  let cfg = Heuristics.gpu_config space ~threads_per_axis:16 ~vthread:2 ~inner:2 ~rtile:8 in
  let normal = Ft_hw.Gpu_model.evaluate v100_spec space cfg in
  let winograd = Ft_hw.Gpu_model.evaluate ~flops_scale:(1. /. 2.25) v100_spec space cfg in
  check_bool "scaled is faster" true (winograd.time_s <= normal.time_s)

let test_cpu_vectorize_helps () =
  let space = gemm_space Target.xeon_e5_2699_v4 in
  let cfg = Heuristics.cpu_config space ~mid:4 ~inner:4 ~vec:8 ~rtile:8 in
  let on = Ft_hw.Cpu_model.evaluate xeon_spec space cfg in
  let off = Ft_hw.Cpu_model.evaluate xeon_spec space { cfg with vectorize = false } in
  check_bool "simd speedup" true (on.time_s < off.time_s)

let test_cpu_parallelism_matters () =
  let space = gemm_space Target.xeon_e5_2699_v4 in
  let serial = Space.default_config space in
  (* all extent in the innermost serial level: parallelism 1 *)
  serial.spatial.(0).(0) <- 1;
  serial.spatial.(0).(3) <- 1024;
  serial.spatial.(1).(0) <- 1;
  serial.spatial.(1).(3) <- 1024;
  let par = Space.default_config space in
  let a = Ft_hw.Cpu_model.evaluate xeon_spec space serial in
  let b = Ft_hw.Cpu_model.evaluate xeon_spec space par in
  check_bool "parallel beats serial" true (b.time_s < a.time_s)

let test_fpga_dsp_limit () =
  let space = gemm_space Target.vu9p in
  let cfg = Space.default_config space in
  (* 64 x 64 = 4096 PEs x 5 DSP > 6840 *)
  cfg.spatial.(0).(0) <- 16;
  cfg.spatial.(0).(2) <- 64;
  cfg.spatial.(1).(0) <- 16;
  cfg.spatial.(1).(2) <- 64;
  let perf = Ft_hw.Fpga_model.evaluate vu9p_spec space cfg in
  check_bool "invalid" false perf.valid

let test_fpga_partition_feeds_pes () =
  let space = gemm_space Target.vu9p in
  let base = Heuristics.fpga_config space ~pe_per_axis:16 ~tile:2 ~partition_id:0 in
  let starved = Ft_hw.Fpga_model.evaluate vu9p_spec space base in
  let fed = Ft_hw.Fpga_model.evaluate vu9p_spec space { base with partition_id = 3 } in
  check_bool "partitioning helps" true (fed.time_s < starved.time_s)

let test_fpga_more_pes_help_until_feed_bound () =
  let space = gemm_space Target.vu9p in
  let small = Heuristics.fpga_config space ~pe_per_axis:4 ~tile:2 ~partition_id:3 in
  let big = Heuristics.fpga_config space ~pe_per_axis:16 ~tile:2 ~partition_id:3 in
  let a = Ft_hw.Fpga_model.evaluate vu9p_spec space small in
  let b = Ft_hw.Fpga_model.evaluate vu9p_spec space big in
  check_bool "more PEs faster" true (b.time_s < a.time_s)

(* Footprints grow monotonically with tile widths. *)
let qcheck_footprint_monotone =
  QCheck.Test.make ~name:"footprint monotone in tile width" ~count:60
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (small, delta) ->
      let graph =
        Ft_ir.Operators.conv2d ~batch:1 ~in_channels:4 ~out_channels:4 ~height:16
          ~width:16 ~kernel:3 ~pad:1 ()
      in
      let reads = (Space.make graph Target.v100).reads in
      let tiles width = Array.make 7 width in
      Footprint.total (tiles small) reads <= Footprint.total (tiles (small + delta)) reads)

let test_cpu_l3_resident_working_set () =
  (* C7's working set (~3 MB) fits the 55 MB L3: DRAM traffic must be
     bounded near compulsory whatever the tiling, so even a bad split
     cannot be pathologically memory-bound. *)
  let graph = Ft_workloads.Yolo.graph (Ft_workloads.Yolo.find "C7") in
  let space = Space.make graph Target.xeon_e5_2699_v4 in
  let rng = Ft_util.Rng.create 5 in
  for _ = 1 to 30 do
    let cfg = Space.random_config rng space in
    let perf = Ft_hw.Cpu_model.evaluate xeon_spec space cfg in
    if perf.valid then
      check_bool "not absurdly slow" true (perf.time_s < 0.1)
  done

let test_avx512_target_peak_higher () =
  check_bool "wider vectors raise peak" true
    (Target.peak_gflops Target.xeon_platinum_8168
    > Target.peak_gflops Target.xeon_e5_2699_v4)

let test_perf_value_zero_flop () =
  let graph = Ft_ir.Operators.shift ~batch:1 ~channels:32 ~height:16 ~width:16 in
  let space = Space.make graph Target.v100 in
  let perf = Ft_hw.Cost.evaluate space (Space.default_config space) in
  check_bool "zero gflops" true (perf.gflops = 0.);
  check_bool "positive perf value (GB/s)" true (Ft_hw.Cost.perf_value space perf > 0.)

let test_invalid_config_rejected_by_cost () =
  let space = gemm_space Target.v100 in
  let cfg = Space.default_config space in
  cfg.spatial.(0).(0) <- 7 (* breaks the product invariant *);
  let perf = Ft_hw.Cost.evaluate space cfg in
  check_bool "invalid" false perf.valid

(* Golden digest of the cost model: a seeded corpus of random configs
   and all their neighbours, over the 12 Table-3 families plus the
   div/mod (BCM) and zero-FLOP (shift) operators, on one target of each
   kind.  The digest covers every bit of [time_s], [gflops] and the
   search objective, [valid] and the note, so any drift in the models'
   float operations shows here.  Pinned before the models were staged
   per space. *)
let cost_model_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let n = ref 0 in
  let record space cfg =
    let perf = Ft_hw.Cost.evaluate space cfg in
    incr n;
    Printf.bprintf buf "%h %h %h %b %s\n" perf.time_s perf.gflops
      (Ft_hw.Cost.perf_value space perf) perf.valid (Ft_hw.Perf.note perf)
  in
  let families =
    Ft_workloads.Suites.all
    @ [ ("BCM", Ft_workloads.Suites.bcm_cases); ("SFT", Ft_workloads.Suites.shift_cases) ]
  in
  List.iteri
    (fun fi (_, cases) ->
      List.iteri
        (fun ci (case : Ft_workloads.Suites.case) ->
          if ci < 3 then
            List.iteri
              (fun ti target ->
                let space = Space.make case.graph target in
                let rng = Ft_util.Rng.create ((1000 * fi) + (10 * ci) + ti) in
                record space (Space.default_config space);
                for _ = 1 to 4 do
                  let cfg = Space.random_config rng space in
                  record space cfg;
                  List.iter (fun (_, next) -> record space next)
                    (Neighborhood.neighbors space cfg)
                done)
              Target.[ v100; xeon_e5_2699_v4; vu9p ])
        cases)
    families;
  (!n, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_cost_model_golden_digest () =
  let n, digest = cost_model_digest () in
  check_int "corpus size" 15014 n;
  Alcotest.(check string) "digest" "867cf74bcdb79701ab28997b01f0c75d" digest

let () =
  Alcotest.run "ft_hw"
    [
      ( "footprint",
        [
          Alcotest.test_case "conv tile" `Quick test_footprint_spans;
          Alcotest.test_case "span arithmetic" `Quick test_span_arithmetic;
        ] );
      ( "gpu",
        [
          Alcotest.test_case "thread limit" `Quick test_gpu_thread_limit;
          Alcotest.test_case "shared memory limit" `Quick test_gpu_shared_memory_limit;
          Alcotest.test_case "below peak" `Quick test_gpu_below_peak;
          Alcotest.test_case "tuned beats naive" `Quick test_gpu_tuned_beats_naive;
          Alcotest.test_case "flops scale" `Quick test_gpu_flops_scale_speeds_compute;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "vectorize" `Quick test_cpu_vectorize_helps;
          Alcotest.test_case "parallelism" `Quick test_cpu_parallelism_matters;
          Alcotest.test_case "L3-resident working set" `Quick
            test_cpu_l3_resident_working_set;
          Alcotest.test_case "avx512 peak" `Quick test_avx512_target_peak_higher;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_footprint_monotone ]);
      ( "fpga",
        [
          Alcotest.test_case "dsp limit" `Quick test_fpga_dsp_limit;
          Alcotest.test_case "partition feeds" `Quick test_fpga_partition_feeds_pes;
          Alcotest.test_case "pe scaling" `Quick test_fpga_more_pes_help_until_feed_bound;
        ] );
      ( "cost",
        [
          Alcotest.test_case "zero-flop perf value" `Quick test_perf_value_zero_flop;
          Alcotest.test_case "invalid config" `Quick test_invalid_config_rejected_by_cost;
          Alcotest.test_case "golden digest" `Quick test_cost_model_golden_digest;
        ] );
    ]
