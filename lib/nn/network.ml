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
  { n_in; n_out; p; opt }

let mlp rng ~dims =
  if Array.length dims < 2 then invalid_arg "Network.mlp: need at least two dims";
  { layers = Array.init (Array.length dims - 1) (fun i -> make_layer rng dims.(i) dims.(i + 1)) }

(* The one forward kernel, in nn_stubs.c: a block of [s] samples
   (entry [k] of sample [j] at [k * s + j]) through a layer, each
   output the scalar dot product's bits (bias first, inputs ascending),
   and under its flag its ReLU too ([Float.max 0.]).  It checks nothing. *)
external forward_kernel :
  Ft_linalg.Linalg.vec -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  float array -> float array -> float array -> bool -> unit
  = "ft_nn_forward_byte" "ft_nn_forward"
[@@noalloc]

(* Scratch blocks, one set per domain as [Config.key_buf], each only
   growing (DESIGN.md §12: not per call, not per network). *)
let arena = Domain.DLS.new_key (fun () -> ref [||])

let block k size =
  (* block [k] of this domain, at least [size] long *)
  let blocks = Domain.DLS.get arena in
  if k >= Array.length !blocks then
    blocks := Array.append !blocks (Array.make (k + 1 - Array.length !blocks) [||]);
  if Array.length !blocks.(k) < size then !blocks.(k) <- Array.create_float size;
  !blocks.(k)

(* [rows], each checked as it is copied in, through every layer as one
   block of [s]: layer [l] reads block [2l] and writes its
   pre-activation to block [2l + 1] and, below the last layer, its ReLU
   to block [2l + 2].  Returns the output block, [2n - 1]. *)
let run net rows =
  let s = Array.length rows and n = Array.length net.layers and n_in = net.layers.(0).n_in in
  let x = block 0 (n_in * s) in
  Array.iteri
    (fun j row ->
      if Array.length row <> n_in then
        invalid_arg (Printf.sprintf "Network: expects %d inputs, got %d" n_in (Array.length row));
      for i = 0 to n_in - 1 do
        Array.unsafe_set x ((i * s) + j) (Array.unsafe_get row i)
      done)
    rows;
  Array.iteri
    (fun l { n_in; n_out; p; _ } ->
      let pre = block ((2 * l) + 1) (n_out * s) in
      let act = if l < n - 1 then block ((2 * l) + 2) (n_out * s) else pre in
      forward_kernel p n_in n_out s (block (2 * l) 0) pre act (l < n - 1))
    net.layers;
  block ((2 * n) - 1) 0

let forward_rows net rows =
  let traced = Ft_obs.Trace.active () in
  let t0 = if traced then Ft_obs.Trace.now_s () else 0. in
  let s = Array.length rows and n_out = net.layers.(Array.length net.layers - 1).n_out in
  let out = run net rows in
  let outputs =
    Array.init s (fun j ->
        let row = Array.create_float n_out in
        for o = 0 to n_out - 1 do
          Array.unsafe_set row o (Array.unsafe_get out ((o * s) + j))
        done;
        row)
  in
  if traced then
    Ft_obs.Trace.incr ~by:(int_of_float ((Ft_obs.Trace.now_s () -. t0) *. 1e9)) "nn.forward_ns";
  outputs

let forward net input = (forward_rows net [| input |]).(0)

(* One minibatch round: [run], then every sample's backward into each
   layer's sums, last layer first, then one AdaDelta step per layer on
   the mean.  The loss trains only each sample's action's output.
   Nothing moves before every input and index is checked. *)
let train_round net batch =
  let n = Array.length net.layers and s = Array.length batch in
  let n_out = net.layers.(n - 1).n_out in
  if Array.exists (fun (_, index, _) -> index < 0 || index >= n_out) batch then
    invalid_arg "Network.train_round: index out of range";
  let out = run net (Array.map (fun (input, _, _) -> input) batch) in
  let dout = block (2 * n) (n_out * s) and total = ref 0. in
  Array.fill dout 0 (n_out * s) 0.;
  Array.iteri
    (fun j (_, index, target) ->
      let d = out.((index * s) + j) -. target in
      total := !total +. (0.5 *. d *. d);
      dout.((j * n_out) + index) <- d)
    batch;
  (* Blocks [2n] and [2n + 1] take turns as [dout] and [din]; the first
     layer's input gradient is never read. *)
  for l = n - 1 downto 0 do
    let { n_in; p; opt; _ } = net.layers.(l) and up = (n - 1 - l) land 1 in
    Adadelta.accumulate opt ~params:p ~n_in ~samples:s ~last:(l = n - 1)
      ~dout:(block ((2 * n) + up) 0) ~pre:(block ((2 * l) + 1) 0) ~x:(block (2 * l) 0)
      ~din:(if l = 0 then [||] else block ((2 * n) + 1 - up) (n_in * s))
  done;
  if s > 0 then Array.iter (fun { opt; p; _ } -> Adadelta.step opt ~params:p ~count:s) net.layers;
  !total /. float_of_int (max s 1)

let param_count net = Array.fold_left (fun acc layer -> acc + dim layer.p) 0 net.layers
let num_layers net = Array.length net.layers
