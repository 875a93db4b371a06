(* A deterministic failure model for schedule measurement.

   Real tuning harnesses (AutoTVM's RPC measurement, Ansor's builder /
   runner split) spend most of their defensive machinery on the flaky
   hardware path: compiles fail, kernels hang or crash, devices drop
   off, and timings are noisy.  This module makes those failures
   *injectable and reproducible*: every fault outcome is a pure
   function of (plan seed, config key, attempt number), so a faulty
   run replays identically for any commit order or wave layout — the {!Resilience} loop above it can then be tested
   bit-for-bit. *)

(* The simulated watchdog: a hung kernel is killed after this many
   simulated seconds. *)
let timeout_cap_s = 1.0

type t = {
  seed : int;
  compile_error : float;
  timeout : float;
  runtime_crash : float;
  lane_death : float;
  noise : float;
  jitter : float;  (* relative sd of one noisy repeat *)
  crash_at_trial : int option;  (* process crash after trial N *)
}

let zero =
  {
    seed = 0;
    compile_error = 0.;
    timeout = 0.;
    runtime_crash = 0.;
    lane_death = 0.;
    noise = 0.;
    jitter = 0.1;
    crash_at_trial = None;
  }

let measurement_rate p =
  p.compile_error +. p.timeout +. p.runtime_crash +. p.lane_death +. p.noise

let injects_measurement_faults p = measurement_rate p > 0.

exception Injected_crash of int

(* -- The outcome function ------------------------------------------- *)

(* FNV-1a over the config key: a stable string hash owned by this
   module, so fault outcomes do not depend on [Hashtbl.hash]'s
   unspecified algorithm. *)
let hash_key s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  (* Non-negative so the value is a valid [Rng.mix] stream index. *)
  Int64.to_int (Int64.shift_right_logical !h 2)

(* One private RNG per (seed, key, attempt, salt): outcomes and noise
   draws never touch the search RNG, and are independent of the order
   in which configs are resolved. *)
let stream p ~key ~attempt ~salt =
  Ft_util.Rng.create
    (Ft_util.Rng.mix (Ft_util.Rng.mix (Ft_util.Rng.mix p.seed (hash_key key)) attempt) salt)

type outcome = Sound | Noisy | Fault of Resilience.fault

(* Cumulative thresholds in a fixed kind order; changing the order
   would silently reshuffle every seeded fault trace, so it is part of
   the format (DESIGN.md §11). *)
let outcome p ~key ~attempt =
  if attempt < 0 then invalid_arg "Plan.outcome: attempt must be >= 0";
  if not (injects_measurement_faults p) then Sound
  else begin
    let u = Ft_util.Rng.float (stream p ~key ~attempt ~salt:0) 1.0 in
    let thresholds =
      [
        (p.compile_error, Fault Resilience.Compile_error);
        (p.timeout, Fault (Resilience.Timeout timeout_cap_s));
        (p.runtime_crash, Fault Resilience.Runtime_crash);
        (p.lane_death, Fault Resilience.Lane_death);
        (p.noise, Noisy);
      ]
    in
    let rec pick acc = function
      | [] -> Sound
      | (rate, outcome) :: rest ->
          let acc = acc +. rate in
          if u < acc then outcome else pick acc rest
    in
    pick 0. thresholds
  end

(* Multiplicative factors for the [count] repeats of a noisy
   measurement: 1 + jitter * N(0,1), clamped non-negative.  Drawn from
   a salt-1 stream so they are independent of the outcome draw. *)
let noise_factors p ~key ~attempt ~count =
  if count < 1 then invalid_arg "Plan.noise_factors: count must be >= 1";
  let rng = stream p ~key ~attempt ~salt:1 in
  List.init count (fun _ ->
      Float.max 0. (1. +. (p.jitter *. Ft_util.Rng.gaussian rng)))

(* -- Spec parsing ---------------------------------------------------

   A spec is a comma-separated list of key=value settings, e.g.
   "seed=7,compile_error=0.1,timeout=0.05,noise=0.2,jitter=0.1".
   Unknown keys, unparsable values, and out-of-range rates are
   errors — a mistyped fault spec must never silently run faultless. *)

let rate_of field s =
  match float_of_string_opt (String.trim s) with
  | Some r when r >= 0. && r <= 1. -> Ok r
  | Some _ -> Error (Printf.sprintf "%s=%s: rate must be in [0, 1]" field s)
  | None -> Error (Printf.sprintf "%s=%s: expected a number" field s)

let of_spec spec =
  let ( let* ) = Result.bind in
  let parts =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ',' spec)
  in
  if parts = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc part ->
        let* p = acc in
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "%S: expected key=value" part)
        | Some i ->
            let k = String.trim (String.sub part 0 i) in
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            (match k with
            | "seed" -> (
                match int_of_string_opt (String.trim v) with
                | Some seed -> Ok { p with seed }
                | None -> Error (Printf.sprintf "seed=%s: expected an integer" v))
            | "compile_error" | "compile" ->
                let* r = rate_of "compile_error" v in
                Ok { p with compile_error = r }
            | "timeout" ->
                let* r = rate_of "timeout" v in
                Ok { p with timeout = r }
            | "runtime_crash" | "crash" ->
                let* r = rate_of "runtime_crash" v in
                Ok { p with runtime_crash = r }
            | "lane_death" | "lane" ->
                let* r = rate_of "lane_death" v in
                Ok { p with lane_death = r }
            | "noise" ->
                let* r = rate_of "noise" v in
                Ok { p with noise = r }
            | "jitter" -> (
                match float_of_string_opt (String.trim v) with
                | Some j when j >= 0. -> Ok { p with jitter = j }
                | Some _ | None ->
                    Error
                      (Printf.sprintf "jitter=%s: expected a non-negative number" v))
            | "rate" ->
                (* Shorthand: one hard-failure rate split evenly over
                   the compile / timeout / crash kinds (the `bench
                   faults` sweep knob). *)
                let* r = rate_of "rate" v in
                Ok
                  {
                    p with
                    compile_error = r /. 3.;
                    timeout = r /. 3.;
                    runtime_crash = r /. 3.;
                  }
            | "crash_at_trial" | "crash_at" -> (
                match int_of_string_opt (String.trim v) with
                | Some n when n >= 1 -> Ok { p with crash_at_trial = Some n }
                | Some _ | None ->
                    Error
                      (Printf.sprintf
                         "crash_at_trial=%s: expected a positive integer" v))
            | _ -> Error (Printf.sprintf "unknown fault key %S" k)))
      (Ok zero) parts
    |> fun result ->
    let* p = result in
    if measurement_rate p > 1. then
      Error
        (Printf.sprintf "fault rates sum to %g (must be <= 1)"
           (measurement_rate p))
    else Ok p

(* Shortest decimal that parses back to exactly [f], so [of_spec
   (to_spec p)] reproduces [p] bit-for-bit (e.g. rate=0.3 sets
   compile_error to 0.3/3, which "%g" alone would round to 0.1). *)
let exact_float f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_spec p =
  String.concat ","
    ([
       Printf.sprintf "seed=%d" p.seed;
       Printf.sprintf "compile_error=%s" (exact_float p.compile_error);
       Printf.sprintf "timeout=%s" (exact_float p.timeout);
       Printf.sprintf "runtime_crash=%s" (exact_float p.runtime_crash);
       Printf.sprintf "lane_death=%s" (exact_float p.lane_death);
       Printf.sprintf "noise=%s" (exact_float p.noise);
       Printf.sprintf "jitter=%s" (exact_float p.jitter);
     ]
    @
    match p.crash_at_trial with
    | None -> []
    | Some n -> [ Printf.sprintf "crash_at_trial=%d" n ])
