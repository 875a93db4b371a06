(** Flat float64 storage, and a cache-blocked GEMM kernel: the
    reference [bench micro] measures host GEMM throughput with.

    Everything here is [Bigarray] with C layout: rows are contiguous,
    elements are unboxed doubles, and a matrix handed to a kernel is
    one flat allocation instead of an array of boxed rows.

    Determinism contract: {!gemm_bt} accumulates every output element
    strictly in ascending-[k] order from its bias, which is exactly
    the summation order of a scalar dot-product loop — so its results
    are bit-for-bit equal to per-row ones (0 ulp), not merely close.
    The blocking over rows and columns never reorders an element's
    additions. *)

type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t
type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [mat m n] is a zero-filled [m] x [n] matrix. *)
val mat : int -> int -> mat

(** [vec n] is a zero-filled vector of length [n]. *)
val vec : int -> vec

val vec_of_array : float array -> vec
val vec_to_array : vec -> float array

(** [of_rows ~cols rows] packs equal-length rows into a fresh matrix;
    every row must have length [cols]. *)
val of_rows : cols:int -> float array array -> mat

(** [gemm_bt ?bias ~a ~bt ~c ()] computes
    [c.(i).(j) = bias.(j) + sum_k a.(i,k) *. bt.(j,k)] for
    [a : m x k], [bt : n x k] (the right operand pre-transposed — the
    natural layout for row-major MLP weight matrices), [c : m x n].
    [c]'s prior contents are overwritten.  Blocked over [m] and [n]
    for cache reuse with a 4-wide register tile over [j]; the [k]
    loop is innermost and ascending, preserving scalar summation
    order per element. *)
val gemm_bt : ?bias:vec -> a:mat -> bt:mat -> c:mat -> unit -> unit
