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
   updates) to RMS(gradients).  The backward product, the element
   formula and the deferred decays are in nn_stubs.c, which checks
   nothing: every bound is checked here, before the call. *)
external accumulate_kernel :
  vec -> vec -> (int[@untagged]) -> (int[@untagged]) -> bool -> float array -> float array ->
  float array -> float array -> unit = "ft_nn_accumulate_byte" "ft_nn_accumulate"
[@@noalloc]

external step_kernel :
  vec -> vec -> vec -> vec -> int array -> (int[@untagged]) -> (int[@untagged]) ->
  (float[@unboxed]) -> (float[@unboxed]) -> (float[@unboxed]) -> unit
  = "ft_nn_step_byte" "ft_nn_step"
[@@noalloc]

let accumulate t ~params ~last ~dout ~pre ~x ~din =
  let n = Array.length x and n_out = Array.length dout in
  if dim t.grad <> dim params then invalid_arg "Adadelta.accumulate: size mismatch";
  if dim params <> n_out * (n + 1) || Array.length pre <> n_out || Array.length din < n then
    invalid_arg "Adadelta.accumulate: width mismatch";
  accumulate_kernel params t.grad n n_out last dout pre x din

let step t ~params ~debt ~count =
  let n_out = Array.length debt in
  let n = if n_out = 0 then 0 else (dim params / n_out) - 1 in
  if dim t.g2 <> dim params then invalid_arg "Adadelta.step: size mismatch";
  if n < 0 || dim params <> n_out * (n + 1) then invalid_arg "Adadelta.step: width mismatch";
  if count < 1 then invalid_arg "Adadelta.step: count must be >= 1";
  step_kernel params t.g2 t.d2 t.grad debt n n_out rho eps (float_of_int count)
