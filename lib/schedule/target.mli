(** Hardware targets.

    Each spec carries the published parameters of the devices used in
    the paper's evaluation; the performance models in [Ft_hw] consume
    them.  These stand in for the real machines per the substitution
    rules in DESIGN.md. *)

type gpu_spec = {
  gpu_name : string;
  sms : int;
  cores_per_sm : int;  (** fp32 cores *)
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
  vector_width : int;
  fma_units : int;
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
  dsp_per_mac : int;  (** DSP slices consumed per fp32 multiply-accumulate PE lane *)
  bram_kb : int;
  ddr_bw_gb : float;
  clock_mhz : float;
}

type t = Gpu of gpu_spec | Cpu of cpu_spec | Fpga of fpga_spec

val v100 : t
val p100 : t
val titan_x : t
val xeon_e5_2699_v4 : t

(** AVX-512 part (vector width 16), for the §6.3 vectorization-length
    adaptation claim. *)
val xeon_platinum_8168 : t

val vu9p : t

val name : t -> string
val peak_gflops : t -> float
