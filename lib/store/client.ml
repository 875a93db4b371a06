(* Synchronous request/response client over one socket.  All failures
   come back as [Error] strings: reuse paths treat a broken daemon as
   a cache miss, never as a fatal error.

   A transport failure poisons the client: a half-written request or
   half-read response leaves the byte stream desynchronized, so the
   next roundtrip on this connection could parse the tail of the old
   response — or garbage — as its own answer.  Once poisoned, every
   later call fails fast with the original reason instead of returning
   wrong data. *)

type t = {
  addr : string;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  (* one in-flight request per connection; callers may share a client
     across threads *)
  mutex : Mutex.t;
  (* set on the first transport failure; never cleared (reconnect) *)
  mutable poisoned : string option;
}

let connect addr_text =
  Protocol.ignore_sigpipe ();
  match Protocol.parse_addr addr_text with
  | Error msg -> Error (Printf.sprintf "bad address %S: %s" addr_text msg)
  | Ok addr -> (
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () ->
          Ok
            {
              addr = addr_text;
              fd;
              ic = Unix.in_channel_of_descr fd;
              oc = Unix.out_channel_of_descr fd;
              mutex = Mutex.create ();
              poisoned = None;
            }
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "connect %s: %s" addr_text (Unix.error_message err)))

let close t =
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Mark the connection unusable and report why.  Every subsequent
   roundtrip fails fast with the same reason — the stream may hold a
   partial frame, so "retry on the same socket" can only ever return
   garbage parsed as a response. *)
let poison t reason =
  let msg =
    Printf.sprintf "connection to %s poisoned (%s); reconnect to retry" t.addr
      reason
  in
  t.poisoned <- Some msg;
  Error msg

let roundtrip t request =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match t.poisoned with
      | Some msg -> Error msg
      | None -> (
          match
            Protocol.write_frame t.oc (Protocol.request_to_string request);
            Protocol.read_frame t.ic
          with
          | Error reason ->
              (* EOF, a bad length prefix, or a truncated frame: the
                 stream is desynchronized (or gone) — poison. *)
              poison t reason
          | Ok payload ->
              (* A complete frame that fails to parse as a response is
                 a protocol-level error, not a transport one: frame
                 boundaries are intact, so the connection stays
                 usable. *)
              Protocol.response_of_string payload
          | exception (Sys_error _ | Unix.Unix_error _) ->
              poison t "transport failure"))

let unexpected what = Error ("unexpected response to " ^ what)

let ping t =
  match roundtrip t Protocol.Ping with
  | Ok Protocol.Pong -> Ok ()
  | Ok (Protocol.Error msg) -> Error msg
  | Ok _ -> unexpected "ping"
  | Error _ as e -> e

let best_exact ?method_name t key =
  match roundtrip t (Protocol.Best { key; method_name }) with
  | Ok (Protocol.Hit hit) -> Ok hit
  | Ok (Protocol.Error msg) -> Error msg
  | Ok _ -> unexpected "best"
  | Error _ as e -> e

let nearest ?method_name ?(limit = 3) t key =
  match roundtrip t (Protocol.Nearest { key; method_name; limit }) with
  | Ok (Protocol.Neighbors records) -> Ok records
  | Ok (Protocol.Error msg) -> Error msg
  | Ok _ -> unexpected "nearest"
  | Error _ as e -> e

let append t record =
  match roundtrip t (Protocol.Append record) with
  | Ok Protocol.Appended -> Ok ()
  | Ok (Protocol.Error msg) -> Error msg
  | Ok _ -> unexpected "append"
  | Error _ as e -> e

let stats t =
  match roundtrip t Protocol.Stats with
  | Ok (Protocol.Stats_reply { count; shards }) -> Ok (count, shards)
  | Ok (Protocol.Error msg) -> Error msg
  | Ok _ -> unexpected "stats"
  | Error _ as e -> e
