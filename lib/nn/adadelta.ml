open Bigarray.Array1

type vec = Ft_linalg.Linalg.vec

(* Decay of both running averages, and the RMS smoothing term. *)
let rho = 0.95
let eps = 1e-6

type t = {
  g2 : vec;  (* running average of squared gradients *)
  d2 : vec;  (* running average of squared updates *)
}

let create n = { g2 = Ft_linalg.Linalg.vec n; d2 = Ft_linalg.Linalg.vec n }

(* AdaDelta (Zeiler 2012): parameter-wise adaptive step with no global
   learning rate — the update magnitude is the ratio of RMS(previous
   updates) to RMS(gradients).  The element formula, the fused layer
   loop and its deferred decays are in nn_stubs.c, which checks
   nothing: every bound is checked here, before the call. *)
external layer :
  vec -> vec -> vec -> int array -> (int[@untagged]) -> (int[@untagged]) -> bool ->
  (float[@unboxed]) -> (float[@unboxed]) -> float array -> float array -> float array ->
  float array -> unit = "ft_nn_update_layer_byte" "ft_nn_update_layer"
[@@noalloc]

let update_layer t ~(params : vec) ~(debt : int array) ~last ~(dout : float array)
    ~(pre : float array) ~(x : float array) ~(din : float array) =
  let n = Array.length x and n_out = Array.length debt in
  if dim t.g2 <> dim params then invalid_arg "Adadelta.update_layer: size mismatch";
  if
    dim params <> n_out * (n + 1)
    || Array.length dout <> n_out
    || Array.length pre <> n_out
    || Array.length din < n
  then invalid_arg "Adadelta.update_layer: width mismatch";
  layer params t.g2 t.d2 debt n n_out last rho eps dout pre x din
