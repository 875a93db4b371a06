(** Client side of the tuning service: a persistent connection issuing
    {!Protocol} requests (`optimize --reuse=HOST:PORT`).

    Every call is synchronous — one request frame out, one response
    frame back — and returns [Error] rather than raising on transport
    or protocol failures, so a dead daemon degrades a warm start into
    a cold search instead of failing it.

    {b Poisoning contract.}  A transport failure (EOF, a socket error,
    a bad length prefix, a truncated frame) leaves the byte stream
    desynchronized: a later request on the same connection could parse
    the tail of an old response — or garbage — as its own answer.  The
    first such failure therefore {e poisons} the client: every
    subsequent call on it fails fast with an [Error] naming the
    original reason, without touching the socket.  Poisoning is
    permanent for the connection; recover by {!close}-ing it and
    {!connect}-ing a fresh client.  A {e complete} frame whose payload
    merely fails to parse does not poison — frame boundaries are
    intact, so the connection stays usable. *)

type t

(** Connect to a daemon ({!Protocol.parse_addr} address forms). *)
val connect : string -> (t, string) result

val close : t -> unit

val ping : t -> (unit, string) result

(** Remote {!Store.best_exact}: same key/method/tie semantics, served
    from the daemon's index. *)
val best_exact :
  ?method_name:string -> t -> Record.key -> (Record.t option, string) result

(** Remote {!Store.nearest}. *)
val nearest :
  ?method_name:string ->
  ?limit:int ->
  t ->
  Record.key ->
  (Record.t list, string) result

(** Append a finished search to the shared repository. *)
val append : t -> Record.t -> (unit, string) result

(** [(records indexed, shard files)] on the daemon. *)
val stats : t -> (int * int, string) result
