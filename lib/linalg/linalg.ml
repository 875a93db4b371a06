type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t
type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let mat m n =
  let a = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout m n in
  Bigarray.Array2.fill a 0.;
  a

let vec n =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill v 0.;
  v

let vec_of_array xs =
  Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout xs

let vec_to_array (v : vec) =
  Array.init (Bigarray.Array1.dim v) (Bigarray.Array1.get v)

let of_rows ~cols rows =
  let m = Array.length rows in
  let a = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout m cols in
  Array.iteri
    (fun i r ->
      if Array.length r <> cols then
        invalid_arg
          (Printf.sprintf "Linalg.of_rows: row %d has length %d, expected %d" i
             (Array.length r) cols);
      for j = 0 to cols - 1 do
        Bigarray.Array2.unsafe_set a i j (Array.unsafe_get r j)
      done)
    rows;
  a

(* Block sizes chosen for MLP-sized shapes (k, n <= 64,
   m up to a frontier's size): a j-block of [bt] rows plus one [a] row
   stays in L1 across the whole i-block. *)
let block_m = 64
let block_n = 48

(* The [mat]/[vec] annotations matter: without them the implementation
   is inferred kind- and layout-polymorphic, and every bigarray access
   in the kernel compiles to the generic (boxing) C call instead of a
   direct load — a ~50x slowdown on non-flambda builds. *)
let gemm_bt ?(bias : vec option) ~(a : mat) ~(bt : mat) ~(c : mat) () =
  let m = Bigarray.Array2.dim1 a and k = Bigarray.Array2.dim2 a in
  let n = Bigarray.Array2.dim1 bt in
  if Bigarray.Array2.dim2 bt <> k then
    invalid_arg "Linalg.gemm_bt: inner dimension mismatch";
  if Bigarray.Array2.dim1 c <> m || Bigarray.Array2.dim2 c <> n then
    invalid_arg "Linalg.gemm_bt: output shape mismatch";
  (match bias with
  | Some b when Bigarray.Array1.dim b <> n ->
      invalid_arg "Linalg.gemm_bt: bias length mismatch"
  | Some _ | None -> ());
  let bias_at =
    match bias with
    | Some b -> fun j -> Bigarray.Array1.unsafe_get b j
    | None -> fun _ -> 0.
  in
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
           accumulator still sums in ascending k, so every element's
           result is bit-identical to the scalar dot product. *)
        let j = ref j_lo in
        while !j + 3 < j_hi do
          let j0 = !j in
          let acc0 = ref (bias_at j0)
          and acc1 = ref (bias_at (j0 + 1))
          and acc2 = ref (bias_at (j0 + 2))
          and acc3 = ref (bias_at (j0 + 3)) in
          for kk = 0 to k - 1 do
            (* weight *. input, matching the scalar loops' operand
               order exactly *)
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
          let acc = ref (bias_at j0) in
          for kk = 0 to k - 1 do
            acc :=
              !acc
              +. (Bigarray.Array2.unsafe_get bt j0 kk
                 *. Bigarray.Array2.unsafe_get a i kk)
          done;
          Bigarray.Array2.unsafe_set c i j0 !acc;
          incr j
        done
      done
    done
  done
