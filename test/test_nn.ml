let check_bool = Alcotest.(check bool)

let test_forward_shapes () =
  let rng = Ft_util.Rng.create 1 in
  let net = Ft_nn.Network.mlp rng ~dims:[| 4; 8; 8; 8; 3 |] in
  Alcotest.(check int) "layers" 4 (Ft_nn.Network.num_layers net);
  Alcotest.(check int) "params" ((4 * 8) + 8 + (8 * 8) + 8 + (8 * 8) + 8 + (8 * 3) + 3)
    (Ft_nn.Network.param_count net);
  let out = Ft_nn.Network.forward net [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "output size" 3 (Array.length out);
  check_bool "finite" true (Array.for_all Float.is_finite out)

(* Numeric gradient check: perturb one weight, compare the loss delta
   with the analytic gradient the backward pass computes.  We reach the
   analytic gradient by observing the AdaDelta state... simpler: train
   with a fresh copy and compare losses, so here we instead verify the
   loss decreases on repeated single-sample training (the optimizer
   contract), and that a linear map is learnable to high precision. *)
let test_learns_linear_map () =
  let rng = Ft_util.Rng.create 7 in
  let net = Ft_nn.Network.mlp rng ~dims:[| 2; 16; 16; 16; 1 |] in
  let sample () =
    let x = Ft_util.Rng.float rng 2. -. 1. and y = Ft_util.Rng.float rng 2. -. 1. in
    ([| x; y |], 0, (2. *. x) -. (3. *. y))
  in
  let initial_loss = ref 0. and final_loss = ref 0. in
  for step = 1 to 3000 do
    let loss = Ft_nn.Network.train_round net [| sample () |] in
    if step <= 100 then initial_loss := !initial_loss +. loss;
    if step > 2900 then final_loss := !final_loss +. loss
  done;
  check_bool "loss dropped 10x" true (!final_loss < !initial_loss /. 10.)

let test_component_training_targets_one_output () =
  let rng = Ft_util.Rng.create 9 in
  let net = Ft_nn.Network.mlp rng ~dims:[| 3; 8; 8; 8; 4 |] in
  let input = [| 0.5; -0.25; 1.0 |] in
  (* Train output #2 towards 10; other outputs may drift (shared lower
     layers) but output #2 must approach the target. *)
  let before = (Ft_nn.Network.forward net input).(2) in
  for _ = 1 to 500 do
    ignore (Ft_nn.Network.train_round net [| (input, 2, 10.) |])
  done;
  let after = (Ft_nn.Network.forward net input).(2) in
  check_bool "moved towards target" true
    (Float.abs (after -. 10.) < Float.abs (before -. 10.));
  check_bool "close to target" true (Float.abs (after -. 10.) < 1.0)

let vec = Ft_linalg.Linalg.vec_of_array
let vec_bits v = Array.init (Bigarray.Array1.dim v) (fun i -> Int64.bits_of_float v.{i})

let test_adadelta_minimizes_quadratic () =
  (* Minimize f(b) = (b - 3)^2, gradient 2(b - 3), as the bias of a
     row without weights. *)
  let state = Ft_nn.Adadelta.create 1 in
  let params = vec [| 10. |] in
  for _ = 1 to 5000 do
    let b = params.{0} in
    Ft_nn.Adadelta.accumulate state ~params ~n_in:0 ~samples:1 ~last:true
      ~dout:[| 2. *. (b -. 3.) |] ~pre:[| b |] ~x:[||] ~din:[||];
    Ft_nn.Adadelta.step state ~params ~count:1
  done;
  check_bool "converged near 3" true (Float.abs (params.{0} -. 3.) < 0.5)

let test_adadelta_size_mismatch () =
  let state = Ft_nn.Adadelta.create 2 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Adadelta.accumulate: size mismatch")
    (fun () ->
      Ft_nn.Adadelta.accumulate state ~params:(vec [| 1. |]) ~n_in:0 ~samples:1 ~last:true
        ~dout:[| 1. |] ~pre:[| 1. |] ~x:[||] ~din:[||]);
  Alcotest.check_raises "mismatch" (Invalid_argument "Adadelta.step: size mismatch") (fun () ->
      Ft_nn.Adadelta.step state ~params:(vec [| 1. |]) ~count:1)

let raises_invalid what f =
  match f () with
  | () -> Alcotest.failf "%s: no exception" what
  | exception Invalid_argument _ -> ()

let test_mlp_rejects_bad_dims () =
  let rng = Ft_util.Rng.create 1 in
  Alcotest.check_raises "one dim"
    (Invalid_argument "Network.mlp: need at least two dims") (fun () ->
      ignore (Ft_nn.Network.mlp rng ~dims:[| 4 |]))

let qcheck_forward_finite =
  QCheck.Test.make ~name:"forward stays finite" ~count:50
    QCheck.(list_of_size (QCheck.Gen.return 4) (float_range (-10.) 10.))
    (fun xs ->
      let rng = Ft_util.Rng.create 5 in
      let net = Ft_nn.Network.mlp rng ~dims:[| 4; 8; 8; 8; 2 |] in
      Array.for_all Float.is_finite (Ft_nn.Network.forward net (Array.of_list xs)))

(* Reference training round over plain float arrays, in four passes:
   zeroed gradient buffers, then per sample a scalar forward and a
   backward pass accumulating into them, then AdaDelta over every
   parameter on the sums divided by the batch size.  Same He
   initialization (same gaussian draw order), same rho/eps, same
   summation orders as [Ft_nn]. *)
module Reference = struct
  type layer = {
    n_in : int;
    n_out : int;
    w : float array;  (* n_out x n_in, row-major *)
    b : float array;
    gw : float array;
    gb : float array;
    w_g2 : float array;
    w_d2 : float array;
    b_g2 : float array;
    b_d2 : float array;
    mutable last_input : float array;
    mutable last_pre : float array;
  }

  let rho = 0.95
  let eps = 1e-6

  let mlp rng ~dims =
    Array.init
      (Array.length dims - 1)
      (fun l ->
        let n_in = dims.(l) and n_out = dims.(l + 1) in
        let scale = sqrt (2. /. float_of_int n_in) in
        let w = Array.init (n_out * n_in) (fun _ -> Ft_util.Rng.gaussian rng *. scale) in
        let zeros n = Array.make n 0. in
        {
          n_in;
          n_out;
          w;
          b = zeros n_out;
          gw = zeros (n_out * n_in);
          gb = zeros n_out;
          w_g2 = zeros (n_out * n_in);
          w_d2 = zeros (n_out * n_in);
          b_g2 = zeros n_out;
          b_d2 = zeros n_out;
          last_input = [||];
          last_pre = [||];
        })

  let forward net input =
    let n = Array.length net in
    let x = ref input in
    Array.iteri
      (fun l layer ->
        layer.last_input <- !x;
        let pre =
          Array.init layer.n_out (fun o ->
              let acc = ref layer.b.(o) in
              for i = 0 to layer.n_in - 1 do
                acc := !acc +. (layer.w.((o * layer.n_in) + i) *. !x.(i))
              done;
              !acc)
        in
        layer.last_pre <- pre;
        x := if l < n - 1 then Array.map (fun v -> Float.max 0. v) pre else pre)
      net;
    !x

  let adadelta ~params ~grads ~g2s ~d2s =
    Array.iteri
      (fun i g ->
        let g2 = (rho *. g2s.(i)) +. ((1. -. rho) *. g *. g) in
        g2s.(i) <- g2;
        let step = -.(sqrt (d2s.(i) +. eps) /. sqrt (g2 +. eps)) *. g in
        d2s.(i) <- (rho *. d2s.(i)) +. ((1. -. rho) *. step *. step);
        params.(i) <- params.(i) +. step)
      grads

  let zero_grads net =
    Array.iter
      (fun layer ->
        Array.fill layer.gw 0 (Array.length layer.gw) 0.;
        Array.fill layer.gb 0 layer.n_out 0.)
      net

  (* The backward pass of the last forward, adding into gw/gb. *)
  let backward net dout =
    let n = Array.length net in
    let dout = ref dout in
    for l = n - 1 downto 0 do
      let layer = net.(l) in
      let dpre =
        if l < n - 1 then
          Array.mapi (fun o d -> if layer.last_pre.(o) > 0. then d else 0.) !dout
        else !dout
      in
      let din = Array.make layer.n_in 0. in
      for o = 0 to layer.n_out - 1 do
        let d = dpre.(o) in
        layer.gb.(o) <- layer.gb.(o) +. d;
        for i = 0 to layer.n_in - 1 do
          let k = (o * layer.n_in) + i in
          layer.gw.(k) <- layer.gw.(k) +. (d *. layer.last_input.(i));
          din.(i) <- din.(i) +. (layer.w.(k) *. d)
        done
      done;
      dout := din
    done

  (* A minibatch round: every sample's forward and backward against the
     same weights, gradients summed in sample order, each sum divided
     by the batch size, then one AdaDelta step over every parameter. *)
  let train_round net batch =
    zero_grads net;
    let total = ref 0. in
    Array.iter
      (fun (input, index, target) ->
        let out = forward net input in
        let dout = Array.make (Array.length out) 0. in
        let d = out.(index) -. target in
        dout.(index) <- d;
        total := !total +. (0.5 *. d *. d);
        backward net dout)
      batch;
    let n = float_of_int (Array.length batch) in
    let mean = Array.map (fun g -> g /. n) in
    Array.iter
      (fun layer ->
        adadelta ~params:layer.w ~grads:(mean layer.gw) ~g2s:layer.w_g2 ~d2s:layer.w_d2;
        adadelta ~params:layer.b ~grads:(mean layer.gb) ~g2s:layer.b_g2 ~d2s:layer.b_d2)
      net;
    !total /. n
end

(* Bit equality, except that any nan matches any nan: which payload a
   nan carries depends on the operand order the compiler picks for a
   commutative instruction, not on the arithmetic. *)
let bits_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) || (Float.is_nan a && Float.is_nan b)

(* [count] rows of [n] entries from [entry], pairwise distinct in their
   bits: a block kernel that mixed up two samples' columns cannot pass
   on them, as it can on copies of one row. *)
let distinct_rows ~count n entry =
  let same =
    Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
  in
  let rec draw acc k =
    if k = 0 then Array.of_list (List.rev acc)
    else
      let row = Array.init n (fun _ -> entry ()) in
      if List.exists (same row) acc then draw acc k else draw (row :: acc) (k - 1)
  in
  draw [] count

(* The fused, zero-skipping training round against the four-pass
   reference: random depths 1-4 and widths 1-13 (so output counts that
   are not multiples of the forward kernel's tiles), inputs with
   exact 0. and -0. entries and large negative ones that kill ReLU
   units, and several rounds, each of one sample, of one sample per
   output (so every output row learns in one step) or of 2-17 distinct
   samples (so each sample's column of the blocks is its own).  Half
   the cases also draw rare infinities and nans, which must take the full
   formula wherever the short cut would not be exact.  Every loss and
   every forward output after each round must be bit-equal. *)
let qcheck_training_matches_reference =
  let gen =
    QCheck.Gen.(
      let* n_layers = int_range 1 4 in
      let* dims = list_repeat (n_layers + 1) (int_range 1 13) in
      let* seed = int_range 0 1_000_000 in
      let* steps = int_range 1 12 in
      let* poisoned = bool in
      return (dims, seed, steps, poisoned))
  in
  QCheck.Test.make ~name:"fused training step bit-equals the four-pass reference"
    ~count:200 (QCheck.make gen)
    (fun (dims, seed, steps, poisoned) ->
      let dims = Array.of_list dims in
      let net = Ft_nn.Network.mlp (Ft_util.Rng.create seed) ~dims in
      let reference = Reference.mlp (Ft_util.Rng.create seed) ~dims in
      let rng = Ft_util.Rng.create (seed + 1) in
      let n_in = dims.(0) and n_out = dims.(Array.length dims - 1) in
      let entry () =
        match Ft_util.Rng.int rng (if poisoned then 60 else 5) with
        | 0 -> 0.
        | 1 -> -0.
        | 2 -> -.Ft_util.Rng.float rng 50.
        | 5 -> infinity
        | 6 -> neg_infinity
        | 7 -> nan
        | _ -> Ft_util.Rng.float rng 4. -. 2.
      in
      let sample n = Array.init n (fun _ -> entry ()) in
      let same_outputs input =
        Array.for_all2 bits_equal
          (Ft_nn.Network.forward net input)
          (Reference.forward reference input)
      in
      let ok = ref true in
      for _ = 1 to steps do
        let input = sample n_in in
        let batch =
          match Ft_util.Rng.int rng 3 with
          | 0 -> Array.init n_out (fun index -> (input, index, entry ()))
          | 1 ->
              Array.map
                (fun row -> (row, Ft_util.Rng.int rng n_out, entry ()))
                (distinct_rows ~count:(2 + Ft_util.Rng.int rng 16) n_in entry)
          | _ -> [| (input, Ft_util.Rng.int rng n_out, entry ()) |]
        in
        let loss = Ft_nn.Network.train_round net batch in
        let expected = Reference.train_round reference batch in
        ok := !ok && bits_equal loss expected && same_outputs (sample n_in)
      done;
      !ok)

(* The qcheck above draws widths 1-13: the kernels' remainder paths.
   At the paper's widths the forward's full tiles and the
   vectorized AdaDelta loop carry almost every value, so run the
   Q-networks of two real spaces (features -> 64^3 -> directions) a
   few hundred rounds against the reference, inputs with exact +-0 and
   ReLU-killing entries, every fourth round training every output and
   every other even round 2-17 distinct samples. *)
let test_training_matches_reference_at_paper_dims () =
  List.iter
    (fun (name, dims) ->
      let net = Ft_nn.Network.mlp (Ft_util.Rng.create 2020) ~dims in
      let reference = Reference.mlp (Ft_util.Rng.create 2020) ~dims in
      let rng = Ft_util.Rng.create 7 in
      let n_in = dims.(0) and n_out = dims.(Array.length dims - 1) in
      let entry () =
        match Ft_util.Rng.int rng 6 with
        | 0 -> 0.
        | 1 -> -0.
        | 2 -> -.Ft_util.Rng.float rng 50.
        | _ -> Ft_util.Rng.float rng 4. -. 2.
      in
      let sample n = Array.init n (fun _ -> entry ()) in
      for step = 1 to 300 do
        let input = sample n_in in
        let batch =
          match step mod 4 with
          | 0 -> Array.init n_out (fun index -> (input, index, entry ()))
          | 2 ->
              Array.map
                (fun row -> (row, Ft_util.Rng.int rng n_out, entry ()))
                (distinct_rows ~count:(2 + Ft_util.Rng.int rng 16) n_in entry)
          | _ -> [| (input, Ft_util.Rng.int rng n_out, entry ()) |]
        in
        let loss = Ft_nn.Network.train_round net batch in
        let expected = Reference.train_round reference batch in
        if not (bits_equal loss expected) then Alcotest.failf "%s: loss of step %d" name step;
        let probe = sample n_in in
        if
          not
            (Array.for_all2 bits_equal (Ft_nn.Network.forward net probe)
               (Reference.forward reference probe))
        then Alcotest.failf "%s: forward after step %d" name step
      done)
    [ ("GMV/v100", [| 13; 64; 64; 64; 22 |]); ("C3D/xeon", [| 38; 64; 64; 64; 80 |]) ]

(* Rows that do not learn still decay their optimizer state on every
   step.  At the paper's widths (C2D/v100 and GMV/v100: features ->
   64^3 -> directions), train two outputs for 600 one-sample rounds,
   so the other output rows and the ReLU-dead hidden rows sit idle for
   long stretches, then train every output in turn.  Each step's loss
   and a probe forward must stay bit-equal to the four-pass
   reference. *)
let lockstep name dims =
  let net = Ft_nn.Network.mlp (Ft_util.Rng.create 2020) ~dims in
  let reference = Reference.mlp (Ft_util.Rng.create 2020) ~dims in
  let rng = Ft_util.Rng.create 11 in
  let sample n =
    Array.init n (fun _ ->
        match Ft_util.Rng.int rng 6 with
        | 0 -> 0.
        | 1 -> -.Ft_util.Rng.float rng 50.
        | _ -> Ft_util.Rng.float rng 4. -. 2.)
  in
  let step what ~input ~index ~target =
    let loss = Ft_nn.Network.train_round net [| (input, index, target) |] in
    let expected = Reference.train_round reference [| (input, index, target) |] in
    if not (bits_equal loss expected) then Alcotest.failf "%s: loss of %s" name what;
    let probe = sample dims.(0) in
    if
      not
        (Array.for_all2 bits_equal (Ft_nn.Network.forward net probe)
           (Reference.forward reference probe))
    then Alcotest.failf "%s: forward after %s" name what
  in
  (step, sample)

let test_long_idle_rows () =
  List.iter
    (fun (name, dims) ->
      let step, sample = lockstep name dims in
      let n_in = dims.(0) and n_out = dims.(Array.length dims - 1) in
      for k = 1 to 600 do
        step (Printf.sprintf "idle step %d" k) ~input:(sample n_in) ~index:(k mod 2)
          ~target:(float_of_int (k mod 5) *. 0.5)
      done;
      for index = 0 to n_out - 1 do
        step (Printf.sprintf "waking output %d" index) ~input:(sample n_in) ~index
          ~target:1.
      done)
    [ ("C2D/v100", [| 31; 64; 64; 64; 62 |]); ("GMV/v100", [| 13; 64; 64; 64; 22 |]) ]

(* After a long clean stretch, one poisoned step: a target so large
   that the squared gradients overflow (the rows it reaches keep finite
   weights but infinite state), an infinite target, or a nan input.
   The rows it reaches hold non-finite state from then on and take the
   full formula on every step; clean steps over every output
   follow. *)
let test_poisoned_rows_take_the_full_formula () =
  List.iter
    (fun (what, poison) ->
      let dims = [| 31; 64; 64; 64; 62 |] in
      let step, sample = lockstep what dims in
      for k = 1 to 300 do
        step (Printf.sprintf "clean step %d" k) ~input:(sample 31) ~index:(k mod 2) ~target:1.
      done;
      let input = sample 31 in
      let input, target =
        match poison with
        | `Target t -> (input, t)
        | `Input v ->
            input.(3) <- v;
            (input, 1.)
      in
      step "the poisoned step" ~input ~index:1 ~target;
      for k = 1 to 200 do
        step (Printf.sprintf "step %d after" k) ~input:(sample 31) ~index:(k mod 62) ~target:1.
      done)
    [ ("huge target", `Target 1e200); ("inf target", `Target infinity); ("nan input", `Input nan) ]

(* Minibatch rounds ([Network.train_round], what the Q-agent trains
   with) against the reference round: each sample's gradient summed in
   order against the same weights, the sums divided by the batch size,
   one AdaDelta step.  At C2D/v100 widths (31 -> 64^3 -> 62), each
   round's mean loss and a probe forward after it must be bit-equal. *)
let c2d = [| 31; 64; 64; 64; 62 |]

let round_lockstep name =
  let net = Ft_nn.Network.mlp (Ft_util.Rng.create 2020) ~dims:c2d in
  let reference = Reference.mlp (Ft_util.Rng.create 2020) ~dims:c2d in
  let rng = Ft_util.Rng.create 13 in
  let entry () =
    match Ft_util.Rng.int rng 6 with
    | 0 -> 0.
    | 1 -> -.Ft_util.Rng.float rng 50.
    | _ -> Ft_util.Rng.float rng 4. -. 2.
  in
  let sample index = (Array.init 31 (fun _ -> entry ()), index, entry ()) in
  let round what batch =
    let loss = Ft_nn.Network.train_round net batch in
    let expected = Reference.train_round reference batch in
    if not (bits_equal loss expected) then Alcotest.failf "%s: loss of %s" name what;
    let probe = Array.init 31 (fun _ -> entry ()) in
    if
      not
        (Array.for_all2 bits_equal (Ft_nn.Network.forward net probe)
           (Reference.forward reference probe))
    then Alcotest.failf "%s: forward after %s" name what
  in
  (round, sample, rng)

let test_round_matches_reference () =
  List.iter
    (fun n ->
      let round, sample, rng = round_lockstep (Printf.sprintf "n = %d" n) in
      for r = 1 to 60 do
        round (Printf.sprintf "round %d" r)
          (Array.init n (fun _ -> sample (Ft_util.Rng.int rng 62)))
      done)
    [ 1; 5; 16 ]

(* Rounds that train only outputs 0 and 1 for 400 rounds of 16, so the
   other output rows and the ReLU-dead hidden rows only decay for a
   long stretch; then rounds that train every output. *)
let test_round_idle_rows () =
  let round, sample, _ = round_lockstep "idle rows" in
  for r = 1 to 400 do
    round (Printf.sprintf "idle round %d" r) (Array.init 16 (fun k -> sample ((r + k) mod 2)))
  done;
  for r = 0 to 7 do
    round (Printf.sprintf "waking round %d" r) (Array.init 16 (fun k -> sample (((16 * r) + k) mod 62)))
  done

(* A round of 16 in which one sample is poisoned — an infinite target,
   an overflowing one, or a nan input — after a long clean stretch: the
   rows it reaches hold non-finite sums and state and take the full
   formula from then on; clean rounds over every output follow. *)
let test_round_with_poisoned_sample () =
  List.iter
    (fun (what, poison) ->
      let round, sample, _ = round_lockstep what in
      for r = 1 to 150 do
        round (Printf.sprintf "clean round %d" r) (Array.init 16 (fun k -> sample ((r + k) mod 2)))
      done;
      let batch = Array.init 16 (fun k -> sample (k mod 3)) in
      let input, index, _ = batch.(7) in
      batch.(7) <-
        (match poison with
        | `Target t -> (input, index, t)
        | `Input v ->
            input.(3) <- v;
            (input, index, 1.));
      round "the poisoned round" batch;
      for r = 1 to 60 do
        round (Printf.sprintf "round %d after" r) (Array.init 16 (fun k -> sample (((16 * r) + k) mod 62)))
      done)
    [ ("inf target", `Target infinity); ("huge target", `Target 1e200); ("nan input", `Input nan) ]

(* The lockstep tests compare the kernels with a reference run by the
   same build; this pin ties them to fixed bits, so a host or a kernel
   body that rounds differently from the one that took it fails here.
   The C2D network (31 -> 64^3 -> 62) trains 60 rounds of 16 samples;
   the digest covers every round's loss and a block of 16 probes'
   outputs after them. *)
let test_pinned_training_digest () =
  let net = Ft_nn.Network.mlp (Ft_util.Rng.create 2020) ~dims:c2d in
  let rng = Ft_util.Rng.create 17 in
  let entry () =
    match Ft_util.Rng.int rng 6 with
    | 0 -> 0.
    | 1 -> -.Ft_util.Rng.float rng 50.
    | _ -> Ft_util.Rng.float rng 4. -. 2.
  in
  let row () = Array.init 31 (fun _ -> entry ()) in
  let bits = Buffer.create 8192 in
  let add v = Buffer.add_int64_le bits (Int64.bits_of_float v) in
  for _ = 1 to 60 do
    add
      (Ft_nn.Network.train_round net
         (Array.init 16 (fun _ ->
              let input = row () in
              (input, Ft_util.Rng.int rng 62, entry ()))))
  done;
  Array.iter (Array.iter add) (Ft_nn.Network.forward_rows net (Array.init 16 (fun _ -> row ())));
  Alcotest.(check string) "digest" "a54f3b3f7befa496162f9456043bfb8c" (Digest.to_hex (Digest.string (Buffer.contents bits)))

(* [forward_rows] runs a block of rows through each layer at once:
   every row's outputs must bit-equal the reference's forward of that
   row alone.  Blocks of 1-40 distinct rows (several of the kernel's
   8-sample tiles before its 4- and 2-sample tiles and the odd last
   sample), random depths 1-4 at widths 1-13 (its output remainders)
   and the C2D network (31 -> 64^3 -> 62), entries with exact +-0 and
   ReLU-killing ones, and in half the cases rare infinities and
   nans. *)
let qcheck_block_forward_matches_reference =
  let gen =
    QCheck.Gen.(
      let* paper = bool in
      let* dims =
        if paper then return (Array.to_list c2d)
        else
          let* n_layers = int_range 1 4 in
          list_repeat (n_layers + 1) (int_range 1 13)
      in
      let* seed = int_range 0 1_000_000 in
      let* count = int_range 1 40 in
      let* poisoned = bool in
      return (dims, seed, count, poisoned))
  in
  QCheck.Test.make ~name:"a block of distinct rows bit-equals the reference row by row"
    ~count:200 (QCheck.make gen)
    (fun (dims, seed, count, poisoned) ->
      let dims = Array.of_list dims in
      let net = Ft_nn.Network.mlp (Ft_util.Rng.create seed) ~dims in
      let reference = Reference.mlp (Ft_util.Rng.create seed) ~dims in
      let rng = Ft_util.Rng.create (seed + 1) in
      let entry () =
        match Ft_util.Rng.int rng (if poisoned then 60 else 5) with
        | 0 -> 0.
        | 1 -> -0.
        | 2 -> -.Ft_util.Rng.float rng 50.
        | 5 -> infinity
        | 6 -> neg_infinity
        | 7 -> nan
        | _ -> Ft_util.Rng.float rng 4. -. 2.
      in
      let rows = distinct_rows ~count dims.(0) entry in
      let outs = Ft_nn.Network.forward_rows net rows in
      Array.length outs = count
      && Array.for_all2
           (fun row out -> Array.for_all2 bits_equal out (Reference.forward reference row))
           rows outs)

(* The layer kernels are C and check nothing: every malformed call
   raises in OCaml first, with the parameters, [din], the summed
   gradient and the optimizer state unchanged (a twin that never
   saw the bad calls takes the same valid steps to the same bits). *)
let test_step_rejects_bad_widths () =
  let make () =
    let state = Ft_nn.Adadelta.create 6 and params = vec [| 0.5; -1.; 2.; 0.25; -0.75; 1.5 |] in
    let good ~dout =
      Ft_nn.Adadelta.accumulate state ~params ~n_in:2 ~samples:1 ~last:false ~dout
        ~pre:[| 1.; -1. |] ~x:[| 1.; -2. |] ~din:[| 0.; 0. |];
      Ft_nn.Adadelta.step state ~params ~count:1
    in
    good ~dout:[| 0.3; 0.2 |];
    (state, params, good)
  in
  let state, params, good = make () and _, twin_params, twin_good = make () in
  let din = [| 0.; 0. |] in
  let bad what ?(params = params) ?(n_in = 2) ?(samples = 1) ?(dout = [| 0.7; 0.1 |])
      ?(pre = [| 1.; 1. |]) ?(x = [| 1.; -2. |]) ?(din = din) () =
    raises_invalid what (fun () ->
        Ft_nn.Adadelta.accumulate state ~params ~n_in ~samples ~last:false ~dout ~pre ~x ~din)
  in
  let bad_step what ?(params = params) ?(count = 1) () =
    raises_invalid what (fun () -> Ft_nn.Adadelta.step state ~params ~count)
  in
  bad "short dout" ~dout:[| 0.7 |] ();
  bad "short pre" ~pre:[| 1. |] ();
  bad "short din" ~din:[| 0. |] ();
  bad "short x" ~x:[| 1. |] ();
  bad "wide x" ~n_in:3 ~x:[| 1.; -2.; 3. |] ();
  bad "negative width" ~n_in:(-1) ();
  bad "two samples" ~samples:2 ();
  bad "negative samples" ~samples:(-1) ();
  bad_step "count 0" ~count:0 ();
  let other = vec (Array.make 7 1.) in
  bad "state size" ~params:other ();
  bad_step "state size" ~params:other ();
  check_bool "other params untouched" true (Array.for_all (( = ) 1.) (Array.init 7 (fun i -> other.{i})));
  check_bool "din untouched" true (din = [| 0.; 0. |]);
  check_bool "params untouched" true (vec_bits params = vec_bits twin_params);
  List.iter
    (fun dout ->
      good ~dout;
      twin_good ~dout)
    [ [| 0.; 0. |]; [| -0.4; 0.5 |] ];
  check_bool "state untouched" true (vec_bits params = vec_bits twin_params)

(* A row of the wrong width, alone or in a block, must raise before
   the C forward kernel reads it, and change nothing. *)
let test_forward_rejects_bad_width () =
  let net = Ft_nn.Network.mlp (Ft_util.Rng.create 3) ~dims:[| 4; 16; 3 |] in
  let good = [| 0.5; -1.; 2.; 0.25 |] in
  let before = Ft_nn.Network.forward net good in
  raises_invalid "short row" (fun () -> ignore (Ft_nn.Network.forward net [| 1.; 2.; 3. |]));
  raises_invalid "long row" (fun () -> ignore (Ft_nn.Network.forward net (Array.make 5 1.)));
  raises_invalid "empty row" (fun () -> ignore (Ft_nn.Network.forward net [||]));
  raises_invalid "short row in a block" (fun () ->
      ignore (Ft_nn.Network.forward_rows net [| good; good; [| 1.; 2.; 3. |] |]));
  (* A training step gives the same loss as on a twin that saw no bad
     call. *)
  let twin = Ft_nn.Network.mlp (Ft_util.Rng.create 3) ~dims:[| 4; 16; 3 |] in
  check_bool "same outputs" true
    (Array.for_all2 bits_equal before (Ft_nn.Network.forward twin good));
  check_bool "same training step" true
    (bits_equal
       (Ft_nn.Network.train_round net [| (good, 1, 2.) |])
       (Ft_nn.Network.train_round twin [| (good, 1, 2.) |]))

let () =
  Alcotest.run "ft_nn"
    [
      ( "network",
        [
          Alcotest.test_case "shapes" `Quick test_forward_shapes;
          Alcotest.test_case "learns linear map" `Slow test_learns_linear_map;
          Alcotest.test_case "component training" `Quick
            test_component_training_targets_one_output;
          Alcotest.test_case "bad dims" `Quick test_mlp_rejects_bad_dims;
          QCheck_alcotest.to_alcotest qcheck_forward_finite;
          QCheck_alcotest.to_alcotest qcheck_training_matches_reference;
          Alcotest.test_case "bit-equal to the reference at the paper's widths" `Quick
            test_training_matches_reference_at_paper_dims;
          Alcotest.test_case "bad input width" `Quick test_forward_rejects_bad_width;
          Alcotest.test_case "long-idle rows bit-equal the reference" `Quick
            test_long_idle_rows;
          Alcotest.test_case "poisoned rows take the full formula" `Quick
            test_poisoned_rows_take_the_full_formula;
          Alcotest.test_case "rounds of 1, 5 and 16 bit-equal the reference round" `Quick
            test_round_matches_reference;
          Alcotest.test_case "rounds with long-idle rows bit-equal" `Quick
            test_round_idle_rows;
          Alcotest.test_case "a round with a poisoned sample bit-equals the reference" `Quick
            test_round_with_poisoned_sample;
          Alcotest.test_case "pinned digest of 60 rounds of 16 at C2D widths" `Quick
            test_pinned_training_digest;
          QCheck_alcotest.to_alcotest qcheck_block_forward_matches_reference;
        ] );
      ( "adadelta",
        [
          Alcotest.test_case "minimizes quadratic" `Quick test_adadelta_minimizes_quadratic;
          Alcotest.test_case "size mismatch" `Quick test_adadelta_size_mismatch;
          Alcotest.test_case "bad layers change nothing" `Quick test_step_rejects_bad_widths;
        ] );
    ]
