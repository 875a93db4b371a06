(* Length-prefixed JSON text frames — see the interface for the wire
   contract.  Encoding and decoding are total functions on the message
   types so the qcheck round-trip test can cover every constructor. *)

type request =
  | Ping
  | Best of { key : Record.key; method_name : string option }
  | Nearest of { key : Record.key; method_name : string option; limit : int }
  | Append of Record.t
  | Stats

type response =
  | Pong
  | Hit of Record.t option
  | Neighbors of Record.t list
  | Appended
  | Stats_reply of { count : int; shards : int }
  | Error of string

(* -- message codecs -------------------------------------------------- *)

let with_method method_name fields =
  match method_name with
  | None -> fields
  | Some m -> fields @ [ ("method", Json.Str m) ]

let request_to_string req =
  Json.to_string
    (match req with
    | Ping -> Json.Obj [ ("req", Json.Str "ping") ]
    | Best { key; method_name } ->
        Json.Obj
          (with_method method_name
             [ ("req", Json.Str "best"); ("key", Record.key_to_value key) ])
    | Nearest { key; method_name; limit } ->
        Json.Obj
          (with_method method_name
             [
               ("req", Json.Str "nearest");
               ("key", Record.key_to_value key);
               ("limit", Json.Num (float_of_int limit));
             ])
    | Append record ->
        Json.Obj [ ("req", Json.Str "append"); ("record", Record.to_value record) ]
    | Stats -> Json.Obj [ ("req", Json.Str "stats") ])

let response_to_string resp =
  Json.to_string
    (match resp with
    | Pong -> Json.Obj [ ("ok", Json.Bool true); ("pong", Json.Bool true) ]
    | Hit None -> Json.Obj [ ("ok", Json.Bool true); ("record", Json.Null) ]
    | Hit (Some r) ->
        Json.Obj [ ("ok", Json.Bool true); ("record", Record.to_value r) ]
    | Neighbors records ->
        Json.Obj
          [
            ("ok", Json.Bool true);
            ("records", Json.Arr (List.map Record.to_value records));
          ]
    | Appended -> Json.Obj [ ("ok", Json.Bool true); ("appended", Json.Bool true) ]
    | Stats_reply { count; shards } ->
        Json.Obj
          [
            ("ok", Json.Bool true);
            ("count", Json.Num (float_of_int count));
            ("shards", Json.Num (float_of_int shards));
          ]
    | Error msg -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ])

let ( let* ) = Result.bind

let opt_method value =
  match Json.member "method" value with
  | None | Some Json.Null -> Ok None
  | Some _ -> Result.map Option.some (Json.field value "method" Json.to_str)

let request_of_string text =
  let* value = Json.of_string text in
  let* req = Json.field value "req" Json.to_str in
  match req with
  | "ping" -> Ok Ping
  | "best" ->
      let* key = Json.field value "key" Record.key_of_value in
      let* method_name = opt_method value in
      Ok (Best { key; method_name })
  | "nearest" ->
      let* key = Json.field value "key" Record.key_of_value in
      let* method_name = opt_method value in
      let* limit = Json.field value "limit" Json.to_int in
      if limit < 0 then Result.Error "field \"limit\": must be >= 0"
      else Ok (Nearest { key; method_name; limit })
  | "append" ->
      let* record = Json.field value "record" Record.of_value in
      Ok (Append record)
  | "stats" -> Ok Stats
  | other -> Result.Error (Printf.sprintf "unknown request %S" other)

let response_of_string text =
  let* value = Json.of_string text in
  let* ok = Json.field value "ok" (function
    | Json.Bool b -> Ok b
    | _ -> Result.Error "expected a bool")
  in
  if not ok then
    let* msg = Json.field value "error" Json.to_str in
    Ok (Error msg)
  else
    match Json.member "record" value with
    | Some Json.Null -> Ok (Hit None)
    | Some v ->
        let* r = Record.of_value v in
        Ok (Hit (Some r))
    | None -> (
        match Json.member "records" value with
        | Some (Json.Arr items) ->
            let rec go acc = function
              | [] -> Ok (Neighbors (List.rev acc))
              | item :: rest ->
                  let* r = Record.of_value item in
                  go (r :: acc) rest
            in
            go [] items
        | Some _ -> Result.Error "field \"records\": expected an array"
        | None -> (
            match Json.member "count" value with
            | Some _ ->
                let* count = Json.field value "count" Json.to_int in
                let* shards = Json.field value "shards" Json.to_int in
                Ok (Stats_reply { count; shards })
            | None -> (
                match Json.member "pong" value with
                | Some _ -> Ok Pong
                | None -> (
                    match Json.member "appended" value with
                    | Some _ -> Ok Appended
                    | None -> Result.Error "unrecognized response shape"))))

(* -- framing --------------------------------------------------------- *)

let max_frame = 16 * 1024 * 1024

let write_frame oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  flush oc

let frame_length line =
  match int_of_string_opt (String.trim line) with
  | None -> Result.Error (Printf.sprintf "bad frame length %S" line)
  | Some len when len < 0 || len > max_frame ->
      Result.Error (Printf.sprintf "frame length %d out of bounds" len)
  | Some len -> Ok len

let read_frame ic =
  match input_line ic with
  | exception End_of_file -> Result.Error "connection closed"
  | line ->
      Result.bind (frame_length line) (fun len ->
          let buf = Bytes.create len in
          match really_input ic buf 0 len with
          | () -> Ok (Bytes.to_string buf)
          | exception End_of_file -> Result.Error "truncated frame")

let frame_of_string s =
  if s = "" then Result.Error "connection closed"
  else
    let line, body =
      match String.index_opt s '\n' with
      | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | None -> (s, "")
    in
    Result.bind (frame_length line) (fun len ->
        if String.length body < len then Result.Error "truncated frame"
        else Ok (String.sub body 0 len))

(* -- addresses ------------------------------------------------------- *)

let parse_addr text =
  let text = String.trim text in
  if text = "" then Result.Error "empty address"
  else if String.length text > 5 && String.sub text 0 5 = "unix:" then
    Ok (Unix.ADDR_UNIX (String.sub text 5 (String.length text - 5)))
  else
    let host, port_text =
      match String.rindex_opt text ':' with
      | None -> ("127.0.0.1", text)
      | Some i ->
          ( (if i = 0 then "127.0.0.1" else String.sub text 0 i),
            String.sub text (i + 1) (String.length text - i - 1) )
    in
    match int_of_string_opt port_text with
    | None -> Result.Error (Printf.sprintf "bad port %S" port_text)
    | Some port when port < 0 || port > 65535 ->
        Result.Error (Printf.sprintf "port %d out of range" port)
    | Some port -> (
        match Unix.inet_addr_of_string host with
        | addr -> Ok (Unix.ADDR_INET (addr, port))
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                Result.Error (Printf.sprintf "host %S has no address" host)
            | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), port))
            | exception Not_found ->
                Result.Error (Printf.sprintf "unknown host %S" host)))

let string_of_sockaddr = function
  | Unix.ADDR_UNIX path -> "unix:" ^ path
  | Unix.ADDR_INET (addr, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
