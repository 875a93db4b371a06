open Bigarray.Array1

(* Each layer's parameters are one flat Bigarray of [n_out] rows, each
   [n_in] weights followed by that output's bias: one contiguous run
   per row for the forward kernel and for the fused backward + AdaDelta
   pass, and one optimizer state for the layer. *)
type layer = {
  n_in : int;
  n_out : int;
  p : Ft_linalg.Linalg.vec;  (* n_out x (n_in + 1) *)
  opt : Adadelta.t;
  debt : int array;  (* per row: decays owed, see {!Adadelta.update_layer} *)
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
  { n_in; n_out; p; opt; debt = Array.make n_out 0; last_input = [||]; last_pre = [||] }

let mlp rng ~dims =
  if Array.length dims < 2 then invalid_arg "Network.mlp: need at least two dims";
  { layers = Array.init (Array.length dims - 1) (fun i -> make_layer rng dims.(i) dims.(i + 1)) }

(* The one forward kernel, in nn_stubs.c: pre.(o) = bias_o + sum_i
   w_oi *. x.(i), eight outputs per pass over [x], each accumulator
   starting from its bias and adding [weight *. input] in ascending
   [i], so each output is bit-for-bit the scalar dot product.  The C
   code checks nothing: [p]'s size is fixed by [make_layer], [pre] is
   allocated here, and [x]'s width is checked by [run]. *)
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

(* [cache] keeps each layer's input and pre-activation for the
   training step; inference leaves them alone.  Only the input's width
   is checked: each layer's output is the next layer's input. *)
let run ~cache net input =
  let n_in = net.layers.(0).n_in in
  if Array.length input <> n_in then
    invalid_arg (Printf.sprintf "Network: expects %d inputs, got %d" n_in (Array.length input));
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
  if not (Ft_obs.Trace.active ()) then run ~cache:false net input
  else begin
    let t0 = Ft_obs.Trace.now_s () in
    let out = run ~cache:false net input in
    Ft_obs.Trace.incr ~by:(int_of_float ((Ft_obs.Trace.now_s () -. t0) *. 1e9)) "nn.forward_ns";
    out
  end

(* One training step from dL/d(output): per layer, last to first, each
   output row's gradient is consumed where it is produced — backward
   product and AdaDelta step in one pass, one C call per layer
   ({!Adadelta.update_layer}).  A layer's input gradient reads its
   weights before they move and lower layers never read them, so this
   is bit-for-bit a forward, a backward into zeroed gradient buffers,
   then AdaDelta (test_nn's reference).  Rows whose gradient is zero —
   every output but the trained one, ReLU-dead units — only decay their
   state, and defer even that until they next learn. *)
let backward_update net dout =
  let n = Array.length net.layers in
  let dout = ref dout in
  for l = n - 1 downto 0 do
    let layer = net.layers.(l) in
    let din = Array.make layer.n_in 0. in
    Adadelta.update_layer layer.opt ~params:layer.p ~debt:layer.debt ~last:(l = n - 1)
      ~dout:!dout ~pre:layer.last_pre ~x:layer.last_input ~din;
    dout := din
  done

(* One step on half the squared error of a single sample; returns the
   loss before the update. *)
let train_mse net ~input ~target =
  let out = run ~cache:true net input in
  if Array.length out <> Array.length target then
    invalid_arg "Network.train_mse: target size mismatch";
  let dout = Array.map2 (fun o t -> o -. t) out target in
  let loss = 0.5 *. Array.fold_left (fun acc d -> acc +. (d *. d)) 0. dout in
  backward_update net dout;
  loss

(* Train on the loss of a single output component (others untouched) —
   the Q-learning update trains only the Q-value of the action taken. *)
let train_mse_component net ~input ~index ~target =
  let out = run ~cache:true net input in
  if index < 0 || index >= Array.length out then
    invalid_arg "Network.train_mse_component: index out of range";
  let d = out.(index) -. target in
  backward_update net (Array.mapi (fun o _ -> if o = index then d else 0.) out);
  0.5 *. d *. d

let copy_params ~src ~dst =
  if Array.length src.layers <> Array.length dst.layers then
    invalid_arg "Network.copy_params: structure mismatch";
  Array.iter2
    (fun (s : layer) d ->
      if s.n_in <> d.n_in || s.n_out <> d.n_out then
        invalid_arg "Network.copy_params: layer shape mismatch";
      blit s.p d.p)
    src.layers dst.layers

let param_count net = Array.fold_left (fun acc layer -> acc + dim layer.p) 0 net.layers
let num_layers net = Array.length net.layers
