open Bigarray.Array1

type vec = Ft_linalg.Linalg.vec

type t = {
  rho : float;
  eps : float;
  g2 : vec;  (* running average of squared gradients *)
  d2 : vec;  (* running average of squared updates *)
}

let create ?(rho = 0.95) ?(eps = 1e-6) n =
  if not (rho >= 0. && rho <= 1. && eps > 0.) then
    invalid_arg "Adadelta.create: need 0 <= rho <= 1 and eps > 0";
  { rho; eps; g2 = Ft_linalg.Linalg.vec n; d2 = Ft_linalg.Linalg.vec n }

(* AdaDelta (Zeiler 2012): parameter-wise adaptive step with no global
   learning rate — the update magnitude is the ratio of RMS(previous
   updates) to RMS(gradients).  The one copy of the element formula;
   it stays in this module because the default dune profile compiles
   with [-opaque] (no cross-module inlining), and a per-element call
   into another module would box its float arguments. *)
let[@inline] step t (params : vec) i g =
  let g2 = (t.rho *. unsafe_get t.g2 i) +. ((1. -. t.rho) *. g *. g) in
  unsafe_set t.g2 i g2;
  let s = -.(sqrt (unsafe_get t.d2 i +. t.eps) /. sqrt (g2 +. t.eps)) *. g in
  unsafe_set t.d2 i ((t.rho *. unsafe_get t.d2 i) +. ((1. -. t.rho) *. s *. s));
  unsafe_set params i (unsafe_get params i +. s)

let update t ~(params : vec) ~(grads : vec) =
  if dim grads <> dim params || dim t.g2 <> dim params then
    invalid_arg "Adadelta.update: size mismatch";
  for i = 0 to dim params - 1 do
    step t params i (unsafe_get grads i)
  done

(* [step], with the zero-gradient short cut.  For g = +0 (the only
   zero [0. +. d *. x] can be) [step] is exactly a decay:
   - (1-ρ)·g·g = +0, so g2' = ρ·g2 +. 0., the same rounding;
   - g2, d2 >= 0 always (0 <= ρ <= 1), so with g2 and d2 +. ε finite,
     r = sqrt (d2+ε) / sqrt (g2'+ε) is finite and >= 0 (ε > 0), and
     the step -.r *. g is -0;
   - (1-ρ)·(-0)·(-0) = +0, so d2' = ρ·d2 +. 0.;
   - w +. -0. = w for every w, ±0 included.
   Finiteness is tested as one sum: a non-finite term makes it
   non-finite, and an overflow only costs the short cut. *)
let[@inline] step_or_decay t ~rho ~eps (g2v : vec) (d2v : vec) params j g =
  let g2 = unsafe_get g2v j and d2 = unsafe_get d2v j in
  let probe = g2 +. (d2 +. eps) in
  if g = 0. && probe -. probe = 0. then begin
    unsafe_set g2v j ((rho *. g2) +. 0.);
    unsafe_set d2v j ((rho *. d2) +. 0.)
  end
  else step t params j g

(* Backward product and AdaDelta step of one dense-layer row in one
   pass.  [0. +. d *. x.(i)] is what accumulating into a zeroed buffer
   evaluates, so it rounds the same way; [din] reads each weight before
   its update.  A zero row (d = ±0) with a finite pre-activation has
   only finite weights and inputs (a non-finite factor makes its
   product non-finite, inf *. 0. included, and the sum then stays so):
   every g is +0, and w *. d = ±0 cannot change din.(i), a sum from +0
   that round-to-nearest makes -0 only when both terms are.  [t]'s
   fields are hoisted: its floats are boxed, its vectors a load away. *)
let update_row t ~(params : vec) ~off ~d ~pre ~(x : float array) ~(din : float array) =
  let n = Array.length x in
  if off < 0 || off + n >= dim params || dim t.g2 <> dim params || Array.length din < n
  then invalid_arg "Adadelta.update_row: out of bounds";
  let rho = t.rho and eps = t.eps and g2v = t.g2 and d2v = t.d2 in
  if d = 0. && pre -. pre = 0. then
    for j = off to off + n do
      step_or_decay t ~rho ~eps g2v d2v params j 0.
    done
  else begin
    for i = 0 to n - 1 do
      Array.unsafe_set din i (Array.unsafe_get din i +. (unsafe_get params (off + i) *. d));
      step_or_decay t ~rho ~eps g2v d2v params (off + i) (0. +. (d *. Array.unsafe_get x i))
    done;
    step_or_decay t ~rho ~eps g2v d2v params (off + n) (0. +. d)
  end
