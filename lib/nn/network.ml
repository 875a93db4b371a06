open Bigarray.Array1

(* Each layer's parameters are one flat Bigarray of [n_out] rows, each
   [n_in] weights followed by that output's bias: one contiguous run
   per row for the forward kernel, the backward pass and the AdaDelta
   step, and one optimizer state for the layer. *)
type layer = {
  n_in : int;
  n_out : int;
  p : Ft_linalg.Linalg.vec;  (* n_out x (n_in + 1) *)
  opt : Adadelta.t;
  mutable last_input : float array;
  mutable last_pre : float array;  (* pre-activation, cached for backward *)
}

type t = { layers : layer array }

let make_layer rng n_in n_out =
  let scale = sqrt (2. /. float_of_int n_in) in
  let p = Ft_linalg.Linalg.vec (n_out * (n_in + 1)) in
  (* Weight k of a plain row-major [n_out * n_in] initialization, in
     the same gaussian-draw order; row o = k / n_in sits at
     o * (n_in + 1) + k mod n_in = k + o.  Biases stay zero. *)
  for k = 0 to (n_out * n_in) - 1 do
    unsafe_set p (k + (k / n_in)) (Ft_util.Rng.gaussian rng *. scale)
  done;
  let opt = Adadelta.create (dim p) in
  { n_in; n_out; p; opt; last_input = [||]; last_pre = [||] }

let mlp rng ~dims =
  if Array.length dims < 2 then invalid_arg "Network.mlp: need at least two dims";
  { layers = Array.init (Array.length dims - 1) (fun i -> make_layer rng dims.(i) dims.(i + 1)) }

(* The one forward kernel, in nn_stubs.c: pre.(o) = bias_o + sum_i
   w_oi *. x.(i), eight outputs per pass over [x], each accumulator
   starting from its bias and adding [weight *. input] in ascending
   [i], so each output is bit-for-bit the scalar dot product.  The C
   code checks nothing: [p]'s size is fixed by [make_layer], [pre] is
   allocated here, and [x]'s width is checked by [check_input]. *)
external affine_kernel :
  Ft_linalg.Linalg.vec -> (int[@untagged]) -> (int[@untagged]) -> float array -> float array ->
  unit = "ft_nn_affine_byte" "ft_nn_affine"
[@@noalloc]

let affine { n_in; n_out; p; _ } (x : float array) =
  let pre = Array.create_float n_out in
  affine_kernel p n_in n_out x pre;
  pre

(* [Float.max 0. v] (nan stays nan, -0. becomes 0.) without its C call *)
let relu v = if v > 0. || Float.is_nan v then v else 0.

let check_input net input =
  let n_in = net.layers.(0).n_in in
  if Array.length input <> n_in then
    invalid_arg (Printf.sprintf "Network: expects %d inputs, got %d" n_in (Array.length input))

(* [cache] keeps each layer's input and pre-activation for the
   training step; inference leaves them alone.  The callers check the
   input's width: each layer's output is the next layer's input. *)
let run ~cache net input =
  let n = Array.length net.layers in
  let x = ref input in
  Array.iteri
    (fun l layer ->
      let pre = affine layer !x in
      if cache then (layer.last_input <- !x; layer.last_pre <- pre);
      x := if l < n - 1 then Array.map relu pre else pre)
    net.layers;
  !x

let forward net input =
  check_input net input;
  if not (Ft_obs.Trace.active ()) then run ~cache:false net input
  else begin
    let t0 = Ft_obs.Trace.now_s () in
    let out = run ~cache:false net input in
    Ft_obs.Trace.incr ~by:(int_of_float ((Ft_obs.Trace.now_s () -. t0) *. 1e9)) "nn.forward_ns";
    out
  end

(* One minibatch round: per sample, in order, a caching forward and a
   backward adding its gradient into each layer's sums; then one
   AdaDelta step per layer on the mean, so every sample reads the same
   weights.  The Q-learning loss trains only each sample's action's
   output.  Every sample is checked first: a bad one leaves no partial
   sums. *)
let train_round net batch =
  let n = Array.length net.layers and count = Array.length batch in
  let n_out = net.layers.(n - 1).n_out in
  if Array.exists (fun (_, index, _) -> index < 0 || index >= n_out) batch then
    invalid_arg "Network.train_round: index out of range";
  Array.iter (fun (input, _, _) -> check_input net input) batch;
  let total = ref 0. in
  Array.iter
    (fun (input, index, target) ->
      let out = run ~cache:true net input in
      let d = out.(index) -. target in
      total := !total +. (0.5 *. d *. d);
      let dout = ref (Array.mapi (fun o _ -> if o = index then d else 0.) out) in
      for l = n - 1 downto 0 do
        let layer = net.layers.(l) in
        let din = Array.make layer.n_in 0. in
        Adadelta.accumulate layer.opt ~params:layer.p ~last:(l = n - 1) ~dout:!dout
          ~pre:layer.last_pre ~x:layer.last_input ~din;
        dout := din
      done)
    batch;
  if count > 0 then
    Array.iter (fun { opt; p; _ } -> Adadelta.step opt ~params:p ~count) net.layers;
  !total /. float_of_int (max count 1)

let param_count net = Array.fold_left (fun acc layer -> acc + dim layer.p) 0 net.layers
let num_layers net = Array.length net.layers
