type provenance = Analytical | Measured of { reps : int; min_ns : float }

type t = {
  time_s : float;
  gflops : float;
  valid : bool;
  lazy_note : string Lazy.t;
  source : provenance;
}

let note t = Lazy.force t.lazy_note

let invalid note =
  {
    time_s = Float.infinity;
    gflops = 0.;
    valid = false;
    lazy_note = note;
    source = Analytical;
  }

let make ~flops ~time_s ~note =
  if time_s <= 0. then invalid (lazy "non-positive time")
  else
    let gflops = float_of_int flops /. time_s /. 1e9 in
    { time_s; gflops; valid = true; lazy_note = note; source = Analytical }

let measured ~flops ~time_s ~reps ~min_ns ~note =
  let perf = make ~flops ~time_s ~note:(Lazy.from_val note) in
  if perf.valid then { perf with source = Measured { reps; min_ns } } else perf

let provenance_to_string = function
  | Analytical -> "analytical"
  | Measured { reps; min_ns } ->
      Printf.sprintf "measured reps=%d min_ns=%.0f" reps min_ns

let pp fmt t =
  let note = note t in
  if t.valid then
    Format.fprintf fmt "%.3f ms, %.1f GFLOPS%s%s" (t.time_s *. 1e3) t.gflops
      (match t.source with
      | Analytical -> ""
      | Measured { reps; _ } -> Printf.sprintf " [measured, %d reps]" reps)
      (if String.equal note "" then "" else " (" ^ note ^ ")")
  else Format.fprintf fmt "invalid: %s" note
