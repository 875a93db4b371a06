(** The tuning-service daemon: serves a {!Shard} repository over the
    {!Protocol} wire format (`flextensor serve`).

    One thread accepts connections; each connection gets its own
    handler thread that processes requests in order.  All handlers
    share the repository — {!Shard.t} serializes index access behind
    its mutex and appends behind per-shard file locks, so thousands of
    clients interleave at record granularity.

    Consistency contract: reads see every record appended through
    this server before the read was received; records written to the
    store directory by other processes are invisible until the daemon
    restarts (the daemon owns the directory while it runs). *)

type t

(** [create ~repo ~listen] binds and listens (backlog 64).  [listen]
    follows {!Protocol.parse_addr}: ["unix:PATH"], ["HOST:PORT"], [":PORT"] or
    ["PORT"]; TCP port [0] picks an ephemeral port (see {!address}).
    Raises [Failure] on a bad address or bind error.

    A unix-socket path is claimed safely: an existing socket file is
    connect-probed first, and [create] refuses (raises [Failure]) when
    a live daemon answers on it — blindly removing it would orphan
    that daemon.  Only a provably stale socket (connect refused) is
    recycled — a probe error that leaves the answer unknown counts as
    live — and a path that exists but is not a socket is never
    touched. *)
val create : repo:Shard.t -> listen:string -> t

(** The bound address in [parse_addr] form — with the real port when
    an ephemeral one was requested. *)
val address : t -> string

(** What the accept loop does with one [Unix.accept] failure; pure and
    exposed so the policy is testable without provoking real EINTR or
    fd-exhaustion storms.  While stopping every error is [Stop];
    otherwise EINTR / ECONNABORTED are [Retry], EMFILE / ENFILE earn a
    short [Backoff] (fd exhaustion is usually transient), and anything
    unexpected is [Log_and_retry] — logged to stderr, never silently
    swallowed, with a pause so a persistent error cannot spin. *)
type accept_decision = Stop | Retry | Backoff of float | Log_and_retry of float

(** Only [test_store_service] calls it: the errno table (EMFILE …)
    cannot be provoked in a test. *)
val accept_decision : stopping:bool -> Unix.error -> accept_decision

(** Blocking accept loop; returns after {!stop}. *)
val serve : t -> unit

(** [serve] on a background thread. *)
val start : t -> Thread.t

(** Stop accepting and close the listen socket (idempotent).  Open
    connections finish their in-flight request and close as clients
    disconnect.  Unlinks the unix-socket path only if this server
    bound it — and while the listen fd is still held, so a newer
    daemon's socket can never be removed by a stale [stop]. *)
val stop : t -> unit
