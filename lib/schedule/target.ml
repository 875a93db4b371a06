type gpu_spec = {
  gpu_name : string;
  sms : int;
  cores_per_sm : int;
  clock_ghz : float;
  mem_bw_gb : float;
  shared_kb_per_sm : int;
  shared_kb_per_block : int;
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;
  warp : int;
}

type cpu_spec = {
  cpu_name : string;
  cores : int;
  clock_ghz : float;
  vector_width : int;  (* fp32 lanes *)
  fma_units : int;  (* FMA issue ports per core *)
  l1_kb : int;
  l2_kb : int;
  l3_mb : int;
  mem_bw_gb : float;
  l2_bw_gb : float;
  l1_bw_gb : float;
}

type fpga_spec = {
  fpga_name : string;
  dsps : int;
  dsp_per_mac : int;
  bram_kb : int;
  ddr_bw_gb : float;
  clock_mhz : float;
}

type t = Gpu of gpu_spec | Cpu of cpu_spec | Fpga of fpga_spec

let v100 =
  Gpu
    {
      gpu_name = "V100";
      sms = 80;
      cores_per_sm = 64;
      clock_ghz = 1.53;
      mem_bw_gb = 900.;
      shared_kb_per_sm = 96;
      shared_kb_per_block = 48;
      max_threads_per_block = 1024;
      max_threads_per_sm = 2048;
      max_blocks_per_sm = 32;
      regs_per_sm = 65536;
      warp = 32;
    }

let p100 =
  Gpu
    {
      gpu_name = "P100";
      sms = 56;
      cores_per_sm = 64;
      clock_ghz = 1.48;
      mem_bw_gb = 732.;
      shared_kb_per_sm = 64;
      shared_kb_per_block = 48;
      max_threads_per_block = 1024;
      max_threads_per_sm = 2048;
      max_blocks_per_sm = 32;
      regs_per_sm = 65536;
      warp = 32;
    }

let titan_x =
  Gpu
    {
      gpu_name = "TitanX";
      sms = 28;
      cores_per_sm = 128;
      clock_ghz = 1.53;
      mem_bw_gb = 480.;
      shared_kb_per_sm = 96;
      shared_kb_per_block = 48;
      max_threads_per_block = 1024;
      max_threads_per_sm = 2048;
      max_blocks_per_sm = 32;
      regs_per_sm = 65536;
      warp = 32;
    }

let xeon_e5_2699_v4 =
  Cpu
    {
      cpu_name = "Xeon-E5-2699v4";
      cores = 22;
      clock_ghz = 2.2;
      vector_width = 8;
      fma_units = 2;
      l1_kb = 32;
      l2_kb = 256;
      l3_mb = 55;
      mem_bw_gb = 76.8;
      l2_bw_gb = 900.;
      l1_bw_gb = 2800.;
    }

(* An AVX-512 part, used to demonstrate that tuned vectorization
   lengths adapt to the instruction set (§6.3 reports all Xeon E5
   schedules converge to length 8 because of AVX2). *)
let xeon_platinum_8168 =
  Cpu
    {
      cpu_name = "Xeon-Platinum-8168";
      cores = 24;
      clock_ghz = 2.7;
      vector_width = 16;
      fma_units = 2;
      l1_kb = 32;
      l2_kb = 1024;
      l3_mb = 33;
      mem_bw_gb = 128.;
      l2_bw_gb = 1200.;
      l1_bw_gb = 3600.;
    }

let vu9p =
  Fpga
    {
      fpga_name = "VU9P";
      dsps = 6840;
      dsp_per_mac = 5;
      bram_kb = 9070;
      ddr_bw_gb = 19.2;
      clock_mhz = 250.;
    }

let name = function
  | Gpu spec -> spec.gpu_name
  | Cpu spec -> spec.cpu_name
  | Fpga spec -> spec.fpga_name

(* Peak single-precision throughput in GFLOPS, used to sanity-bound the
   performance models. *)
let peak_gflops = function
  | Gpu spec ->
      float_of_int (spec.sms * spec.cores_per_sm) *. spec.clock_ghz *. 2.
  | Cpu spec ->
      float_of_int (spec.cores * spec.vector_width * spec.fma_units)
      *. spec.clock_ghz *. 2.
  | Fpga spec ->
      float_of_int (spec.dsps / spec.dsp_per_mac) *. spec.clock_mhz /. 1000. *. 2.
