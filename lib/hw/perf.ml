type provenance = Analytical | Measured of { reps : int; min_ns : float }

type t = {
  time_s : float;
  gflops : float;
  valid : bool;
  note : string;
  source : provenance;
}

let invalid note =
  {
    time_s = Float.infinity;
    gflops = 0.;
    valid = false;
    note;
    source = Analytical;
  }

let make ?(source = Analytical) ~flops ~time_s ~note () =
  if time_s <= 0. then invalid "non-positive time"
  else
    {
      time_s;
      gflops = float_of_int flops /. time_s /. 1e9;
      valid = true;
      note;
      source;
    }

let measured ~flops ~time_s ~reps ~min_ns ~note =
  make ~source:(Measured { reps; min_ns }) ~flops ~time_s ~note ()

let is_measured t = match t.source with Measured _ -> true | Analytical -> false

let provenance_to_string = function
  | Analytical -> "analytical"
  | Measured { reps; min_ns } ->
      Printf.sprintf "measured reps=%d min_ns=%.0f" reps min_ns

let pp fmt t =
  if t.valid then
    Format.fprintf fmt "%.3f ms, %.1f GFLOPS%s%s" (t.time_s *. 1e3) t.gflops
      (match t.source with
      | Analytical -> ""
      | Measured { reps; _ } -> Printf.sprintf " [measured, %d reps]" reps)
      (if String.equal t.note "" then "" else " (" ^ t.note ^ ")")
  else Format.fprintf fmt "invalid: %s" t.note
