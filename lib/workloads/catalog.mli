(** The named targets and operators the CLI and the benchmark build
    from: [flextensor optimize OP DIMS -t TARGET] resolves through
    here. *)

(** CLI key <-> target table ([v100], [p100], [titanx], [xeon],
    [vu9p]); the source of [--target]. *)
val targets : (string * Ft_schedule.Target.t) list

(** Resolve a CLI key or a canonical [Target.name]. *)
val target_of : string -> (Ft_schedule.Target.t, string) result

(** Operator construction from a name and dims — the table behind
    `flextensor optimize OP DIMS` (e.g. [gemm [512;512;512]]). *)
val graph_of : op:string -> dims:int list -> (Ft_ir.Op.graph, string) result
