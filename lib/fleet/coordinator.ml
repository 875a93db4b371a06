(* The fleet coordinator: shards each evaluation wave into batches
   that workers pull from a shared queue over the {!Protocol}, with
   work-stealing for stragglers, elastic join/leave mid-run, and
   heartbeat-timeout requeue of batches claimed by dead workers.

   Determinism: a batch's entries are a pure function of the task and
   its config texts (the worker recomputes exactly what the local
   evaluator would), so it never matters *which* worker returns a
   batch, or whether the local fallback computed it — the first
   completed result of a batch wins and any duplicate (a straggler
   finishing after its batch was stolen) is ignored. *)

type batch_state =
  | Queued
  | Claimed of { worker : string; since : float }
  | Completed

type batch = {
  id : int;
  keyed : (Ft_schedule.Config.t * string) list;  (* dispatch order *)
  configs : string list;  (* serialized, same order *)
  mutable state : batch_state;
  mutable entries : Protocol.entry list;  (* valid once Completed *)
}

type worker_info = { mutable last_seen : float }

type stats = {
  remote_batches : int;
  local_batches : int;
  requeues : int;
  steals : int;
  workers_seen : int;
}

type t = {
  task : Task.t;
  space : Ft_schedule.Space.t;
  batch_size : int;
  heartbeat_s : float;
  steal_after_s : float;
  grace_s : float;
  local_fallback : bool;
  fd : Unix.file_descr;
  addr : Unix.sockaddr;
  bound_unix : string option;
  started_at : float;
  mutex : Mutex.t;
  mutable stopping : bool;
  mutable next_batch : int;
  batches : (int, batch) Hashtbl.t;  (* the in-flight wave only *)
  workers : (string, worker_info) Hashtbl.t;
  mutable ever_joined : bool;
  mutable seen : int;  (* distinct join count, for stats *)
  mutable n_remote : int;
  mutable n_local : int;
  mutable n_requeues : int;
  mutable n_steals : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let create ?(backlog = 64) ?(batch_size = 16) ?(heartbeat_s = 2.0)
    ?(steal_after_s = 5.0) ?(grace_s = 1.0) ?(local_fallback = true) ~task
    ~listen () =
  if batch_size < 1 then invalid_arg "Coordinator.create: batch_size must be >= 1";
  if heartbeat_s <= 0. then
    invalid_arg "Coordinator.create: heartbeat_s must be > 0";
  let space =
    match Task.space task with
    | Ok space -> space
    | Error msg -> failwith (Printf.sprintf "fleet: bad task: %s" msg)
  in
  let addr =
    match Protocol.parse_addr listen with
    | Ok addr -> addr
    | Error msg -> failwith (Printf.sprintf "fleet: bad address %S: %s" listen msg)
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  let bound_unix =
    try
      (match addr with
      | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix.ADDR_UNIX path -> Ft_store.Server.claim_unix_path path);
      Unix.bind fd addr;
      Unix.listen fd backlog;
      match addr with Unix.ADDR_UNIX path -> Some path | _ -> None
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  {
    task;
    space;
    batch_size;
    heartbeat_s;
    steal_after_s;
    grace_s;
    local_fallback;
    fd;
    addr = Unix.getsockname fd;
    bound_unix;
    started_at = Ft_util.Monotime.now_s ();
    mutex = Mutex.create ();
    stopping = false;
    next_batch = 0;
    batches = Hashtbl.create 64;
    workers = Hashtbl.create 8;
    ever_joined = false;
    seen = 0;
    n_remote = 0;
    n_local = 0;
    n_requeues = 0;
    n_steals = 0;
  }

let address t = Protocol.string_of_sockaddr t.addr
let task t = t.task

let stats t =
  locked t (fun () ->
      {
        remote_batches = t.n_remote;
        local_batches = t.n_local;
        requeues = t.n_requeues;
        steals = t.n_steals;
        workers_seen = t.seen;
      })

(* A worker is presumed dead once nothing — claim, result, heartbeat —
   has arrived from it for two heartbeat intervals ([Welcome] told it
   the interval, and idle workers beat far more often than that). *)
let stale_after t = 2. *. t.heartbeat_s

(* Requeue every batch claimed by a worker the heartbeat timeout has
   declared dead, and drop the dead workers from the roster (so the
   live-worker count the local fallback consults decays too).  Called
   under the mutex from the dispatch loop — crucially not from
   connection handlers, so a fleet with zero connections still
   detects its dead. *)
let sweep t now =
  let dead =
    Hashtbl.fold
      (fun name (info : worker_info) acc ->
        if now -. info.last_seen > stale_after t then name :: acc else acc)
      t.workers []
  in
  List.iter (fun name -> Hashtbl.remove t.workers name) dead;
  Hashtbl.iter
    (fun _ batch ->
      match batch.state with
      | Claimed { worker; _ }
        when worker <> "local" && not (Hashtbl.mem t.workers worker) ->
          batch.state <- Queued;
          t.n_requeues <- t.n_requeues + 1;
          Ft_obs.Trace.incr "fleet.requeue"
      | _ -> ())
    t.batches

let touch t worker now =
  match Hashtbl.find_opt t.workers worker with
  | Some info -> info.last_seen <- now
  | None ->
      (* claims/heartbeats (re-)register too: a worker swept as dead
         that was merely slow rejoins transparently *)
      Hashtbl.replace t.workers worker { last_seen = now };
      t.ever_joined <- true

let find_batch t pred =
  Hashtbl.fold
    (fun _ batch acc ->
      match acc with
      | Some (best : batch) ->
          if pred batch && batch.id < best.id then Some batch else acc
      | None -> if pred batch then Some batch else None)
    t.batches None

let idle_backoff = 0.05

(* Hand out work: the oldest queued batch first; with nothing queued,
   steal the oldest batch a straggler has sat on past [steal_after_s]
   (re-issuing it to the asking worker — whoever finishes first
   completes it, the other result is ignored). *)
let claim_for t worker now =
  match find_batch t (fun b -> b.state = Queued) with
  | Some batch ->
      batch.state <- Claimed { worker; since = now };
      Protocol.Work { batch = batch.id; configs = batch.configs }
  | None -> (
      match
        find_batch t (fun b ->
            match b.state with
            | Claimed { worker = owner; since } ->
                owner <> worker && now -. since > t.steal_after_s
            | _ -> false)
      with
      | Some batch ->
          batch.state <- Claimed { worker; since = now };
          t.n_steals <- t.n_steals + 1;
          Ft_obs.Trace.incr "fleet.steal";
          Protocol.Work { batch = batch.id; configs = batch.configs }
      | None -> Protocol.Idle { backoff_s = idle_backoff })

let complete batch entries =
  if batch.state <> Completed then begin
    batch.entries <- entries;
    batch.state <- Completed
  end

let handle t (req : Protocol.request) : Protocol.response =
  let now = Ft_util.Monotime.now_s () in
  locked t (fun () ->
      match req with
      | Protocol.Join { worker } ->
          touch t worker now;
          t.seen <- t.seen + 1;
          Ft_obs.Trace.incr "fleet.join";
          Protocol.Welcome { task = t.task; heartbeat_s = t.heartbeat_s }
      | Protocol.Claim { worker } ->
          if t.stopping then Protocol.Done
          else begin
            touch t worker now;
            claim_for t worker now
          end
      | Protocol.Result { worker; batch = id; entries } -> (
          touch t worker now;
          match Hashtbl.find_opt t.batches id with
          | None ->
              (* a batch from an already-collected wave: a straggler's
                 duplicate after a steal — harmless *)
              Protocol.Ack
          | Some batch ->
              if List.length entries <> List.length batch.configs then
                Protocol.Error
                  (Printf.sprintf "batch %d: %d entries for %d configs" id
                     (List.length entries) (List.length batch.configs))
              else begin
                complete batch entries;
                t.n_remote <- t.n_remote + 1;
                Protocol.Ack
              end)
      | Protocol.Heartbeat { worker } ->
          if t.stopping then Protocol.Done
          else begin
            touch t worker now;
            Protocol.Ack
          end
      | Protocol.Leave { worker } ->
          Hashtbl.remove t.workers worker;
          Hashtbl.iter
            (fun _ batch ->
              match batch.state with
              | Claimed { worker = owner; _ } when owner = worker ->
                  batch.state <- Queued;
                  t.n_requeues <- t.n_requeues + 1
              | _ -> ())
            t.batches;
          Ft_obs.Trace.incr "fleet.leave";
          Protocol.Ack)

(* One worker connection: frames in, frames out, in order, until the
   peer disconnects.  Malformed requests earn an Error response and
   the connection survives. *)
let connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rec loop () =
        match Protocol.read_frame ic with
        | Error _ -> ()
        | Ok payload ->
            let response =
              match Protocol.request_of_string payload with
              | Error msg -> Protocol.Error ("bad request: " ^ msg)
              | Ok req -> (
                  try handle t req
                  with e ->
                    Protocol.Error ("internal error: " ^ Printexc.to_string e))
            in
            Protocol.write_frame oc (Protocol.response_to_string response);
            loop ()
      in
      try loop () with Sys_error _ | Unix.Unix_error _ -> ())

let serve t =
  Ft_store.Server.accept_loop ~what:"flextensor fleet"
    ~stopping:(fun () -> t.stopping)
    t.fd
    (fun client -> connection t client)

let start t = Thread.create (fun () -> serve t) ()

(* Compute one batch on the coordinator itself — the same pure
   cost-model call a worker makes, on the already-parsed configs. *)
let compute_local t batch =
  List.map
    (fun (cfg, _) ->
      let perf =
        Ft_hw.Cost.evaluate ~flops_scale:t.task.Task.flops_scale t.space cfg
      in
      (Ft_hw.Cost.perf_value t.space perf, perf))
    batch.keyed

(* May the dispatch loop fall back to computing locally right now?
   Only when no live worker could pick the work up: before the first
   worker has ever joined, a grace period after coordinator start
   gives the fleet time to connect (otherwise `--fleet N` would race
   ahead single-handed); after workers have joined, local compute
   engages only once the sweep has declared them all dead. *)
let may_compute_locally t now =
  t.local_fallback
  && Hashtbl.length t.workers = 0
  && (t.ever_joined || now -. t.started_at >= t.grace_s)

let poll_s = 0.01

let dispatch t keyed =
  match keyed with
  | [] -> []
  | _ ->
      (* Shard the wave into batches, preserving dispatch order. *)
      let ids =
        locked t (fun () ->
            let rec chunks acc rest =
              match rest with
              | [] -> List.rev acc
              | _ ->
                  let rec take n xs =
                    match (n, xs) with
                    | 0, _ | _, [] -> ([], xs)
                    | n, x :: tl ->
                        let hd, rest = take (n - 1) tl in
                        (x :: hd, rest)
                  in
                  let hd, tl = take t.batch_size rest in
                  chunks (hd :: acc) tl
            in
            List.map
              (fun chunk ->
                let id = t.next_batch in
                t.next_batch <- t.next_batch + 1;
                Hashtbl.replace t.batches id
                  {
                    id;
                    keyed = chunk;
                    configs =
                      List.map
                        (fun (cfg, _) -> Ft_schedule.Config_io.to_string cfg)
                        chunk;
                    state = Queued;
                    entries = [];
                  };
                id)
              (chunks [] keyed))
      in
      if Ft_obs.Trace.active () then
        Ft_obs.Trace.event "fleet.dispatch"
          [ ("n", Int (List.length keyed)); ("batches", Int (List.length ids)) ];
      (* Wait for the wave, sweeping dead workers and computing
         batches locally when the fleet cannot.  Polling (rather than
         a timed condvar wait, which OCaml's Condition lacks) keeps
         the loop simple; 10 ms is far below any real measurement
         cost. *)
      let rec wait () =
        let now = Ft_util.Monotime.now_s () in
        let action =
          locked t (fun () ->
              sweep t now;
              if
                List.for_all
                  (fun id ->
                    match Hashtbl.find_opt t.batches id with
                    | Some b -> b.state = Completed
                    | None -> false)
                  ids
              then `Collect
              else if may_compute_locally t now then
                match find_batch t (fun b -> b.state = Queued) with
                | Some batch ->
                    batch.state <- Claimed { worker = "local"; since = now };
                    `Compute batch
                | None -> `Wait
              else `Wait)
        in
        match action with
        | `Collect ->
            locked t (fun () ->
                let out =
                  List.concat_map
                    (fun id ->
                      let b = Hashtbl.find t.batches id in
                      b.entries)
                    ids
                in
                List.iter (fun id -> Hashtbl.remove t.batches id) ids;
                out)
        | `Compute batch ->
            (* computed outside the lock: results and heartbeats keep
               flowing while the coordinator crunches *)
            let entries = compute_local t batch in
            locked t (fun () ->
                if batch.state <> Completed then begin
                  complete batch entries;
                  t.n_local <- t.n_local + 1
                end);
            wait ()
        | `Wait ->
            Thread.delay poll_s;
            wait ()
      in
      wait ()

let stop t =
  let stop_now =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          true
        end)
  in
  if stop_now then begin
    (* Unlink our unix socket while the fd still holds the bind (see
       Ft_store.Server.stop for why this ordering is race-free). *)
    (match t.bound_unix with
    | Some path -> (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
