open Bigarray.Array1

type vec = Ft_linalg.Linalg.vec

(* Decay of both running averages, and the RMS smoothing term. *)
let rho = 0.95
let eps = 1e-6

(* Running averages of squared gradients and updates; the round's sums. *)
type t = { g2 : vec; d2 : vec; grad : vec }

let create n = Ft_linalg.Linalg.{ g2 = vec n; d2 = vec n; grad = vec n }

(* AdaDelta (Zeiler 2012): parameter-wise adaptive step with no global
   learning rate — the update magnitude is the ratio of RMS(previous
   updates) to RMS(gradients).  The backward product and the element
   formula are in nn_stubs.c, which checks nothing: every bound is
   checked here, before the call. *)
external accumulate_kernel :
  vec -> vec -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> bool ->
  float array -> float array -> float array -> float array -> unit
  = "ft_nn_accumulate_byte" "ft_nn_accumulate"
[@@noalloc]

external step_kernel :
  vec -> vec -> vec -> vec -> (int[@untagged]) -> (float[@unboxed]) -> (float[@unboxed]) ->
  (float[@unboxed]) -> unit
  = "ft_nn_step_byte" "ft_nn_step"
[@@noalloc]

let accumulate t ~params ~n_in ~samples ~last ~dout ~pre ~x ~din =
  if dim t.grad <> dim params then invalid_arg "Adadelta.accumulate: size mismatch";
  let n_out = dim params / max 1 (n_in + 1) in
  (* [samples * w] would overflow on a huge [samples]: divide instead *)
  let short a w = w > 0 && samples > Array.length a / w in
  if n_in < 0 || samples < 0 || n_out * (n_in + 1) <> dim params || short dout n_out
     || short pre n_out || short x n_in || (Array.length din > 0 && short din n_in)
  then invalid_arg "Adadelta.accumulate: width mismatch";
  accumulate_kernel params t.grad n_in n_out samples last dout pre x din

let step t ~params ~count =
  if dim t.g2 <> dim params then invalid_arg "Adadelta.step: size mismatch";
  if count < 1 then invalid_arg "Adadelta.step: count must be >= 1";
  step_kernel params t.g2 t.d2 t.grad (dim params) rho eps (float_of_int count)
