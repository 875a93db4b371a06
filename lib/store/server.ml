(* Accept loop + per-connection handler threads over the sharded
   repository.  The repository's own locking makes handlers safe to
   run concurrently; this module only owns sockets. *)

type t = {
  repo : Shard.t;
  fd : Unix.file_descr;
  addr : Unix.sockaddr;
  (* unix-socket path this process bound, if any: [stop] unlinks only
     what it bound, never a path some other daemon owns *)
  bound_unix : string option;
  mutable stopping : bool;
  stop_mutex : Mutex.t;
}

(* Is some process accepting on the unix socket at [path]?  A connect
   probe distinguishes a live daemon (connect succeeds) from the stale
   socket file of a dead one (ECONNREFUSED).  Errors that leave the
   answer unknown count as live: the caller must never unlink a socket
   it cannot prove dead. *)
let unix_socket_live path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          false
      | exception Unix.Unix_error _ -> true)

(* Claim the unix-socket path for this process, or raise: refuse when
   a live daemon answers on it (blindly removing would silently orphan
   that daemon: its fd keeps serving existing connections but no new
   client can ever reach it), unlink a provably stale socket, and
   never touch a path that is not a socket at all. *)
let claim_unix_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      if unix_socket_live path then
        failwith
          (Printf.sprintf
             "serve: a daemon is already listening on unix:%s (stop it, or \
              pick another socket path)"
             path)
      else (
        (* stale socket of a dead daemon: safe to recycle *)
        try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | _ ->
      failwith
        (Printf.sprintf "serve: %s exists and is not a socket; refusing to \
                         remove it" path)

(* Pending connections the kernel queues before [accept]. *)
let backlog = 64

let create ~repo ~listen =
  Protocol.ignore_sigpipe ();
  let addr =
    match Protocol.parse_addr listen with
    | Ok addr -> addr
    | Error msg -> failwith (Printf.sprintf "serve: bad address %S: %s" listen msg)
  in
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  let bound_unix =
    try
      (match addr with
      | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix.ADDR_UNIX path -> claim_unix_path path);
      Unix.bind fd addr;
      Unix.listen fd backlog;
      match addr with Unix.ADDR_UNIX path -> Some path | _ -> None
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  {
    repo;
    fd;
    addr = Unix.getsockname fd;
    bound_unix;
    stopping = false;
    stop_mutex = Mutex.create ();
  }

let address t = Protocol.string_of_sockaddr t.addr

let handle repo (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Best { key; method_name } ->
      Protocol.Hit (Shard.best_exact ?method_name repo key)
  | Protocol.Nearest { key; method_name; limit } ->
      Protocol.Neighbors (Shard.nearest ?method_name ~limit repo key)
  | Protocol.Append record ->
      Shard.add repo record;
      Protocol.Appended
  | Protocol.Stats ->
      Protocol.Stats_reply
        { count = Shard.count repo; shards = List.length (Shard.shards repo) }

(* One request frame -> one response frame, in order, until the client
   disconnects.  A malformed request earns an Error response (the
   connection survives); a framing error or EOF ends the connection. *)
let connection repo fd =
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
                  try handle repo req
                  with e ->
                    Protocol.Error
                      ("internal error: " ^ Printexc.to_string e))
            in
            Protocol.write_frame oc (Protocol.response_to_string response);
            loop ()
      in
      try loop () with Sys_error _ | Unix.Unix_error _ -> ())

(* What the accept loop does with one [Unix.accept] failure.  Pure and
   exposed so the policy is testable without provoking real EINTR /
   fd-exhaustion storms:

   - while stopping, every error means the listen fd was (or is being)
     closed under us — exit cleanly;
   - EINTR (a signal landed mid-accept) and ECONNABORTED (the peer
     hung up between SYN and accept) are non-events — retry at once;
   - EMFILE / ENFILE (fd exhaustion, usually transient: handler
     threads are busy closing) must not end accepting forever — back
     off briefly and retry;
   - anything else is unexpected: keep the daemon alive, but log it
     (never swallow) and pause so a persistent error cannot spin. *)
type accept_decision = Stop | Retry | Backoff of float | Log_and_retry of float

let accept_decision ~stopping (err : Unix.error) =
  if stopping then Stop
  else
    match err with
    | Unix.EINTR | Unix.ECONNABORTED -> Retry
    | Unix.EMFILE | Unix.ENFILE -> Backoff 0.05
    | _ -> Log_and_retry 0.05

(* Accept until [stop], one handler thread per connection, surviving
   transient accept failures per [accept_decision]. *)
let serve t =
  let rec loop () =
    match Unix.accept t.fd with
    | client, _ ->
        ignore (Thread.create (connection t.repo) client);
        if t.stopping then () else loop ()
    | exception Unix.Unix_error (err, _, _) -> (
        match accept_decision ~stopping:t.stopping err with
        | Stop -> ()
        | Retry -> loop ()
        | Backoff delay ->
            Thread.delay delay;
            loop ()
        | Log_and_retry delay ->
            Printf.eprintf
              "flextensor serve: accept failed: %s; still accepting\n%!"
              (Unix.error_message err);
            Thread.delay delay;
            loop ())
  in
  loop ()

let start t = Thread.create (fun () -> serve t) ()

let stop t =
  Mutex.lock t.stop_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.stop_mutex)
    (fun () ->
      if not t.stopping then begin
        t.stopping <- true;
        (* Unlink exactly the path this process bound, and do it while
           the fd is still open: as long as we hold the bind no other
           daemon can have claimed the path (its connect probe finds
           us live), so the name still refers to our socket — no
           check-then-remove window.  The old code stat'd then
           [Sys.remove]d after close, which could take out a newer
           daemon's freshly bound socket. *)
        (match t.bound_unix with
        | Some path -> (
            try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
        | None -> ());
        try Unix.close t.fd with Unix.Unix_error _ -> ()
      end)
