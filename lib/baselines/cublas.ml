(* cuBLAS stand-in: matmul-family kernels with a wide dispatch table
   and hand-written-assembly efficiency our schedule space cannot
   express (modelled as a small compute-FLOP discount). *)

let assembly_scale = 0.9

let supported graph =
  match Op_kind.classify graph with
  | Op_kind.Matmul_like -> true
  | _ -> false

let evaluate target graph =
  let space = Ft_schedule.Space.make graph target in
  let extra =
    (* cuBLAS dispatches across more tile shapes than a DNN library. *)
    List.concat_map
      (fun threads_per_axis ->
        List.map
          (fun rtile ->
            Ft_schedule.Heuristics.gpu_config space ~threads_per_axis ~vthread:4
              ~inner:4 ~rtile)
          [ 8; 16; 32 ])
      [ 8; 16; 32 ]
  in
  Library.best_of ~flops_scale:assembly_scale space
    (Library.gpu_candidates space @ extra)
