type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* Raw state save/restore, for crash-safe checkpointing of a search:
   restoring a saved state replays the generator's future stream
   exactly from the save point. *)
let state t = t.state
let set_state t s = t.state <- s

(* splitmix64 step: advances the state and mixes it into a well
   distributed 64-bit value. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Mask to 62 bits: OCaml ints are 63-bit, so converting a 63-bit
   value would wrap negative for the top half of the range. *)
let max_62 = 0x3FFFFFFFFFFFFFFF

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling: a plain [raw mod bound] over-weights the
     first [2^62 mod bound] residues, so draws landing in the biased
     tail [2^62 - 2^62 mod bound, 2^62) are redrawn.  [tail] is
     2^62 mod bound computed without representing 2^62 itself. *)
  let tail = ((max_62 mod bound) + 1) mod bound in
  let rec draw () =
    let raw = Int64.to_int (Int64.logand (next_int64 t) 0x3FFFFFFFFFFFFFFFL) in
    if raw <= max_62 - tail then raw mod bound else draw ()
  in
  draw ()

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  let mantissa = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. mantissa /. 9007199254740992.

let bool t = Int64.logand (next_int64 t) 1L = 1L

let split t = create (Int64.to_int (next_int64 t))

(* Derive the [i]-th independent stream of a seed without any shared
   state: jump a fresh generator to position i+1 of the seed's
   splitmix sequence and mix once more.  Pure in (seed, i), so a
   consumer keyed by (seed, i) gets the same stream whatever else drew
   from the seed before it. *)
let mix seed i =
  if i < 0 then invalid_arg "Rng.mix: stream index must be >= 0";
  let t =
    { state = Int64.add (Int64.of_int seed)
        (Int64.mul golden_gamma (Int64.of_int (i + 1))) }
  in
  Int64.to_int (next_int64 t)

let stream seed i = create (mix seed i)

let choose t items =
  match items with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth items (int t (List.length items))

let choose_array t items =
  if Array.length items = 0 then invalid_arg "Rng.choose_array: empty array";
  items.(int t (Array.length items))

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let gaussian t =
  (* Box-Muller; discards the second sample for simplicity. *)
  let u1 = Float.max 1e-12 (float t 1.0) in
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
