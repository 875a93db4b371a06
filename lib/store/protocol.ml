(* Length-prefixed JSON text frames — see the interface for the wire
   contract. *)

let max_frame = 16 * 1024 * 1024

let write_frame oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  flush oc

let frame_length line =
  match int_of_string_opt (String.trim line) with
  | None -> Error (Printf.sprintf "bad frame length %S" line)
  | Some len when len < 0 || len > max_frame ->
      Error (Printf.sprintf "frame length %d out of bounds" len)
  | Some len -> Ok len

let frame_of_string s =
  if s = "" then Error "connection closed"
  else
    let line, body =
      match String.index_opt s '\n' with
      | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | None -> (s, "")
    in
    Result.bind (frame_length line) (fun len ->
        if String.length body < len then Error "truncated frame"
        else Ok (String.sub body 0 len))
