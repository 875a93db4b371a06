(* Host-speed calibration.

   On a shared machine the same instructions do not take the same time
   from one minute to the next: whatever shares the physical cores can
   halve a thread's speed for a few seconds at a time (on the 2-core VM
   this benchmark was defined on, this kernel's time swings between
   about 15 and 28 ms; CPU time swings with it, so it is not time
   slicing).  A workload process therefore times this fixed kernel
   before its first job, after its last and every quarter second in
   between, and every time the benchmark reports is divided by the
   host factor measured around it: times read as if the host ran at
   reference speed.

   The kernel is the benchmark's own code, so a change to the library
   cannot move it.  A workload's time follows the kernel's to a power
   below 1, [elasticity]. *)

let kernel () =
  (* allocation, hashing and boxed floats, like the search loops *)
  let tbl = Hashtbl.create 1024 in
  let acc = ref 0. in
  for i = 0 to 25_000 do
    Hashtbl.replace tbl (string_of_int (i land 4095)) (float_of_int i);
    let a = Array.init 16 (fun j -> float_of_int (i + j)) in
    acc := !acc +. Array.fold_left ( +. ) 0. a
  done;
  (* unboxed float loops over Bigarrays, like the Q-network and kernels *)
  let open Bigarray in
  let n = 48 in
  let a = Array2.init float64 c_layout n n (fun i j -> float_of_int (i + j) /. 7.) in
  let b = Array2.init float64 c_layout n n (fun i j -> float_of_int (i - j) /. 5.) in
  let c = Array2.create float64 c_layout n n in
  for _ = 1 to 38 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let s = ref 0. in
        for k = 0 to n - 1 do
          s := !s +. (Array2.unsafe_get a i k *. Array2.unsafe_get b j k)
        done;
        Array2.unsafe_set c i j !s
      done
    done
  done;
  ignore (Sys.opaque_identity (!acc +. c.{1, 1}))

let time () =
  let t0 = Flextensor.Monotime.now_s () in
  kernel ();
  Flextensor.Monotime.elapsed_s t0

(* The kernel's time on that VM when nothing contended for its cores
   (5th percentile of 487 timings over a minute). *)
let reference_s = 0.015

(* The slope of log workload time against log kernel time.  Fitted on
   that VM per workload, on two days, it ranged over 0.6-1.0 (the best
   fits of one day are not the next day's); one value for all workloads
   holds up best across both days. *)
let elasticity = 0.8

(* How much slower than reference speed the host ran, given kernel
   times measured before and after an interval. *)
let factor ~before ~after = ((before +. after) /. 2. /. reference_s) ** elasticity
