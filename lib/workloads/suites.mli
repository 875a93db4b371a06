(** Test-case suites for the 12 Table-3 benchmarks plus the new
    operators of §6.4. *)

type case = { case_name : string; graph : Ft_ir.Op.graph }

val bcm_cases : case list
val shift_cases : case list

(** The 12 Table-3 suites keyed by the paper's abbreviations
    (GMV, GMM, BIL, C1D, T1D, C2D, T2D, C3D, T3D, GRP, DEP, DIL). *)
val all : (string * case list) list

val find : string -> case list
