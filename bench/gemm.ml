(* The host-GEMM reference row of [bench micro]: a cache-blocked
   C := A * Bᵀ over flat float64 [Bigarray]s, the throughput the
   compiled kernels are compared against.

   Determinism: every output element accumulates strictly in
   ascending-[k] order from 0, which is exactly the summation order of
   a scalar dot-product loop, so results are bit-for-bit equal to
   per-row ones (0 ulp), not merely close.  The blocking over rows and
   columns never reorders an element's additions. *)

type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

(* A zero-filled [m] x [n] matrix. *)
let mat m n =
  let a = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout m n in
  Bigarray.Array2.fill a 0.;
  a

(* Block sizes chosen for MLP-sized shapes (k, n <= 64,
   m up to a frontier's size): a j-block of [bt] rows plus one [a] row
   stays in L1 across the whole i-block. *)
let block_m = 64
let block_n = 48

(* [gemm_bt ~a ~bt ~c] sets [c.(i).(j) = sum_k a.(i,k) *. bt.(j,k)] for
   [a : m x k], [bt : n x k] (the right operand pre-transposed, the
   natural layout for row-major weight matrices), [c : m x n].

   The [mat] annotations matter: without them the implementation is
   inferred kind- and layout-polymorphic, and every bigarray access in
   the kernel compiles to the generic (boxing) C call instead of a
   direct load — a ~50x slowdown on non-flambda builds. *)
let gemm_bt ~(a : mat) ~(bt : mat) ~(c : mat) =
  let m = Bigarray.Array2.dim1 a and k = Bigarray.Array2.dim2 a in
  let n = Bigarray.Array2.dim1 bt in
  if Bigarray.Array2.dim2 bt <> k then invalid_arg "Gemm.gemm_bt: inner dimension mismatch";
  if Bigarray.Array2.dim1 c <> m || Bigarray.Array2.dim2 c <> n then
    invalid_arg "Gemm.gemm_bt: output shape mismatch";
  let n_iblocks = (m + block_m - 1) / block_m in
  let n_jblocks = (n + block_n - 1) / block_n in
  for jb = 0 to n_jblocks - 1 do
    let j_lo = jb * block_n in
    let j_hi = min n (j_lo + block_n) in
    for ib = 0 to n_iblocks - 1 do
      let i_lo = ib * block_m in
      let i_hi = min m (i_lo + block_m) in
      for i = i_lo to i_hi - 1 do
        (* 4 output columns per pass share one traversal of row i; each
           accumulator still sums in ascending k. *)
        let j = ref j_lo in
        while !j + 3 < j_hi do
          let j0 = !j in
          let acc0 = ref 0. and acc1 = ref 0. and acc2 = ref 0. and acc3 = ref 0. in
          for kk = 0 to k - 1 do
            let x = Bigarray.Array2.unsafe_get a i kk in
            acc0 := !acc0 +. (Bigarray.Array2.unsafe_get bt j0 kk *. x);
            acc1 := !acc1 +. (Bigarray.Array2.unsafe_get bt (j0 + 1) kk *. x);
            acc2 := !acc2 +. (Bigarray.Array2.unsafe_get bt (j0 + 2) kk *. x);
            acc3 := !acc3 +. (Bigarray.Array2.unsafe_get bt (j0 + 3) kk *. x)
          done;
          Bigarray.Array2.unsafe_set c i j0 !acc0;
          Bigarray.Array2.unsafe_set c i (j0 + 1) !acc1;
          Bigarray.Array2.unsafe_set c i (j0 + 2) !acc2;
          Bigarray.Array2.unsafe_set c i (j0 + 3) !acc3;
          j := j0 + 4
        done;
        while !j < j_hi do
          let j0 = !j in
          let acc = ref 0. in
          for kk = 0 to k - 1 do
            acc :=
              !acc +. (Bigarray.Array2.unsafe_get bt j0 kk *. Bigarray.Array2.unsafe_get a i kk)
          done;
          Bigarray.Array2.unsafe_set c i j0 !acc;
          incr j
        done
      done
    done
  done
