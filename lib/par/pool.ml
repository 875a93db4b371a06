(* A fixed crew of worker domains executing one parallel region at a
   time.  Work distribution is a shared atomic chunk counter, so lanes
   self-balance; results land in a per-index slot array, which is what
   makes [map] order-preserving and lane-count-independent. *)

type t = {
  jobs : int;  (* lanes, including the calling domain *)
  requested : int;  (* pre-clamp lane request (default-pool reuse key) *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable body : (int -> unit) option;  (* current region, takes lane id *)
  mutable generation : int;
  mutable pending : int;  (* workers still inside the current region *)
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
  (* EWMA of per-task cost in ns, measured across regions; 0 until the
     first parallel region.  Written only by the calling domain. *)
  mutable task_ns : float;
}

let worker pool lane =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.mutex;
    while (not pool.stopped) && pool.generation = !seen do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.stopped then Mutex.unlock pool.mutex
    else begin
      seen := pool.generation;
      let body = Option.get pool.body in
      Mutex.unlock pool.mutex;
      (* Region bodies never raise: [map] captures per-task exceptions
         into its slot array. *)
      body lane;
      Mutex.lock pool.mutex;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.mutex;
      loop ()
    end
  in
  loop ()

(* OCaml's minor GC is stop-the-world across domains: running more
   domains than cores does not just waste time, it multiplies every
   minor collection into a cross-domain synchronization storm (a -j 4
   pool on one core runs ~2x *slower* than -j 1).  So lane counts are
   clamped to the machine by default; [~oversubscribe:true] opts out
   for callers that genuinely need the domain count (the pool-size
   determinism tests). *)
let host_cores () = max 1 (Domain.recommended_domain_count ())

let create ?(oversubscribe = false) jobs =
  let requested = max 1 jobs in
  let jobs = if oversubscribe then requested else min requested (host_cores ()) in
  let pool =
    {
      jobs;
      requested;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      body = None;
      generation = 0;
      pending = 0;
      stopped = false;
      domains = [];
      task_ns = 0.;
    }
  in
  pool.domains <-
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker pool (i + 1)));
  pool

let lanes pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stopped <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* Run [body] on every lane (the caller is lane 0) and wait for all
   lanes to finish. *)
let run pool body =
  if pool.jobs = 1 then body 0
  else begin
    Mutex.lock pool.mutex;
    if pool.stopped then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    pool.body <- Some body;
    pool.pending <- pool.jobs - 1;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    body 0;
    Mutex.lock pool.mutex;
    while pool.pending > 0 do
      Condition.wait pool.work_done pool.mutex
    done;
    pool.body <- None;
    Mutex.unlock pool.mutex
  end

(* Chunks are contiguous index ranges so each lane touches adjacent
   slots (cache-friendly) and small enough that lanes rebalance when
   task costs are skewed.  Size is amortized against the measured
   per-task cost: one grab of the shared atomic counter should cover
   at least [amortize_ns] of work, but never so much that a lane holds
   more than a quarter of its fair share in one grab. *)
let amortize_ns = 200_000.

let chunk_bound pool n =
  let balance = max 1 (n / (pool.jobs * 4)) in
  if pool.task_ns <= 0. then max 1 (min 32 balance)
  else max 1 (min balance (int_of_float (amortize_ns /. pool.task_ns)))

let raw_map pool f xs =
  match xs with
  | [] -> [||]
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let protect i =
        match f i arr.(i) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let out = Array.make n (Error (Exit, Printexc.get_callstack 0)) in
      if pool.jobs = 1 || n = 1 then
        for i = 0 to n - 1 do
          out.(i) <- protect i
        done
      else begin
        let chunk = chunk_bound pool n in
        let n_chunks = (n + chunk - 1) / chunk in
        let next = Atomic.make 0 in
        (* Telemetry: region wall-time as a span, per-lane task counts
           collected into per-lane slots (no cross-domain emission) and
           attached to the span end.  Counts depend on OS scheduling —
           the results in [out] never do. *)
        let traced = Ft_obs.Trace.active () in
        let lane_tasks = if traced then Array.make pool.jobs 0 else [||] in
        let span =
          if traced then
            Ft_obs.Trace.span_begin "pool.map"
              [
                ("n", Int n);
                ("chunk", Int chunk);
                ("chunks", Int n_chunks);
                ("lanes", Int pool.jobs);
              ]
          else 0
        in
        Ft_obs.Trace.incr "pool.regions";
        if traced then Ft_obs.Trace.gauge "pool.chunk_size" (float_of_int chunk);
        let t0 = Ft_util.Monotime.now_s () in
        run pool (fun lane ->
            let mine = ref 0 in
            let rec grab () =
              let c = Atomic.fetch_and_add next 1 in
              if c < n_chunks then begin
                let lo = c * chunk and hi = min n ((c + 1) * chunk) in
                for i = lo to hi - 1 do
                  out.(i) <- protect i
                done;
                mine := !mine + (hi - lo);
                grab ()
              end
            in
            grab ();
            if traced then lane_tasks.(lane) <- !mine);
        (* Update the per-task cost estimate: region wall-time spread
           over [jobs] lanes approximates total CPU, so wall * jobs / n
           is the per-task cost the next region's chunking amortizes
           against.  Written only here, on the calling domain. *)
        let per_task =
          Ft_util.Monotime.elapsed_s t0 *. 1e9 *. float_of_int pool.jobs
          /. float_of_int n
        in
        if per_task > 0. then
          pool.task_ns <-
            (if pool.task_ns <= 0. then per_task
             else (0.7 *. pool.task_ns) +. (0.3 *. per_task));
        if traced then
          Ft_obs.Trace.span_end span
            ~fields:
              (Array.to_list
                 (Array.mapi
                    (fun lane tasks ->
                      (Printf.sprintf "lane%d" lane, Ft_obs.Trace.Int tasks))
                    lane_tasks))
      end;
      out

let map pool f xs =
  let out = raw_map pool (fun _ x -> f x) xs in
  Array.iter
    (function Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
    out;
  List.map (function Ok v -> v | Error _ -> assert false) (Array.to_list out)

(* Keep the captured backtrace with the exception: a lane failure
   (e.g. under fault injection) is only debuggable if the caller can
   still print where the task actually raised. *)
let try_map pool f xs = Array.to_list (raw_map pool (fun _ x -> f x) xs)

let map_seeded pool ~seed f xs =
  let out = raw_map pool (fun i x -> f (Ft_util.Rng.stream seed i) x) xs in
  Array.iter
    (function Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
    out;
  List.map (function Ok v -> v | Error _ -> assert false) (Array.to_list out)

(* Process-wide default pool: sized by [-j] ([set_default_jobs]), else
   FT_JOBS, else the runtime's recommendation. *)

let requested_jobs = ref None

(* A malformed FT_JOBS must not be dropped silently — the user asked
   for a lane count and is getting the default instead.  Warn once per
   process (the default pool re-resolves its size on every use). *)
let warned_env_jobs = ref false

let env_jobs () =
  match Sys.getenv_opt "FT_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          if not !warned_env_jobs then begin
            warned_env_jobs := true;
            Printf.eprintf
              "warning: ignoring FT_JOBS=%S (expected a positive integer)\n%!" s
          end;
          None)

let default_jobs () =
  match !requested_jobs with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()))

let default_pool = ref None

let default () =
  let jobs = default_jobs () in
  match !default_pool with
  | Some pool when pool.requested = jobs && not pool.stopped -> pool
  | Some pool ->
      shutdown pool;
      let pool = create jobs in
      default_pool := Some pool;
      pool
  | None ->
      let pool = create jobs in
      default_pool := Some pool;
      pool

let set_default_jobs jobs =
  if jobs < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  requested_jobs := Some jobs

(* Join the default pool's worker domains; the pool is recreated
   lazily by the next [default ()].  Kept only for
   benchmark/kit/child.ml, which calls it. *)
let quiesce_default () =
  match !default_pool with
  | Some pool ->
      shutdown pool;
      default_pool := None
  | None -> ()
