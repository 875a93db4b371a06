(* Roofline analysis of an operator: arithmetic intensity from the
   compulsory traffic, and the resulting performance ceiling per
   target.  Useful to sanity-check exploration results — no schedule
   can beat min(peak, intensity x bandwidth) — and to explain which
   operators are doomed to be memory-bound (GEMV, DEP, shift). *)

type t = {
  flops : int;
  compulsory_bytes : int;
  intensity : float;  (* FLOPs per byte, compulsory traffic *)
}

let tensor_bytes graph name =
  match Ft_ir.Op.tensor_shape graph name with
  | Some shape -> List.fold_left ( * ) 1 shape * 4
  | None -> 0

let of_graph graph =
  let node = Ft_schedule.Space.compute_node graph in
  let flops = Ft_ir.Op.flops node in
  (* Compulsory traffic: external inputs read once (through any
     producer chain) plus the output written once. *)
  let input_bytes =
    List.fold_left
      (fun acc (name, _) -> acc + tensor_bytes graph name)
      0 graph.Ft_ir.Op.inputs
  in
  let output_bytes = Ft_ir.Op.spatial_points node * 4 in
  let compulsory_bytes = input_bytes + output_bytes in
  {
    flops;
    compulsory_bytes;
    intensity =
      (if compulsory_bytes = 0 then 0.
       else float_of_int flops /. float_of_int compulsory_bytes);
  }

let bandwidth_gb = function
  | Ft_schedule.Target.Gpu spec -> spec.mem_bw_gb
  | Ft_schedule.Target.Cpu spec -> spec.mem_bw_gb
  | Ft_schedule.Target.Fpga spec -> spec.ddr_bw_gb

(* The classical roofline: attainable GFLOPS on a target. *)
let ceiling_gflops roofline target =
  Float.min
    (Ft_schedule.Target.peak_gflops target)
    (roofline.intensity *. bandwidth_gb target)

(* Is the operator memory-bound on this target even at perfect reuse? *)
let memory_bound roofline target =
  roofline.intensity *. bandwidth_gb target
  < Ft_schedule.Target.peak_gflops target

let pp fmt roofline =
  Format.fprintf fmt "%d FLOPs over %d compulsory bytes: %.2f FLOP/B"
    roofline.flops roofline.compulsory_bytes roofline.intensity
