type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* -- Writing --------------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f ->
      if not (Float.is_finite f) then Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else
        (* %.17g round-trips every finite double bit-for-bit; %.15g is
           preferred when it does too, so 0.9 prints as 0.9. *)
        let short = Printf.sprintf "%.15g" f in
        Buffer.add_string buf
          (if Float.equal (float_of_string short) f then short
           else Printf.sprintf "%.17g" f)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string value =
  let buf = Buffer.create 256 in
  write buf value;
  Buffer.contents buf

(* -- Parsing ----------------------------------------------------------

   Recursive descent over the string; [Parse_error] carries the
   position so a malformed log line reports where it broke. *)

exception Parse_error of int * string

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %c, got %c" c got)
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n
       && String.equal (String.sub text !pos (String.length word)) word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "invalid literal, expected %s" word)
  in
  let add_code_point buf code =
    (* UTF-8 encode \u escapes (log fields are ASCII in practice). *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
  in
  let parse_escape buf =
    match peek () with
    | None -> fail "unterminated escape"
    | Some '"' ->
        advance ();
        Buffer.add_char buf '"'
    | Some '\\' ->
        advance ();
        Buffer.add_char buf '\\'
    | Some '/' ->
        advance ();
        Buffer.add_char buf '/'
    | Some 'n' ->
        advance ();
        Buffer.add_char buf '\n'
    | Some 'r' ->
        advance ();
        Buffer.add_char buf '\r'
    | Some 't' ->
        advance ();
        Buffer.add_char buf '\t'
    | Some 'b' ->
        advance ();
        Buffer.add_char buf '\b'
    | Some 'f' ->
        advance ();
        Buffer.add_char buf '\012'
    | Some 'u' ->
        advance ();
        if !pos + 4 > n then fail "truncated \\u escape";
        let hex = String.sub text !pos 4 in
        pos := !pos + 4;
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code -> add_code_point buf code
        | None -> fail "invalid \\u escape")
    | Some c -> fail (Printf.sprintf "invalid escape \\%c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          parse_escape buf;
          go ()
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numeric c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && numeric text.[!pos] do
      advance ()
    done;
    let token = String.sub text start (!pos - start) in
    match float_of_string_opt token with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "invalid number %S" token)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go ()
        | Some '}' -> advance ()
        | _ -> fail "expected , or } in object"
      in
      go ();
      Obj (List.rev !fields)
    end
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else begin
      let items = ref [] in
      let rec go () =
        let v = parse_value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go ()
        | Some ']' -> advance ()
        | _ -> fail "expected , or ] in array"
      in
      go ();
      Arr (List.rev !items)
    end
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "Json.of_string: %s at position %d" msg at)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_num = function Num f -> Ok f | _ -> Error "expected a number"

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 -> Ok (int_of_float f)
  | Num _ -> Error "expected an integer"
  | _ -> Error "expected a number"

let to_str = function Str s -> Ok s | _ -> Error "expected a string"

let to_int_list = function
  | Arr items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match to_int item with
            | Ok i -> go (i :: acc) rest
            | Error _ as e -> e)
      in
      go [] items
  | _ -> Error "expected an array"

let field value name convert =
  match member name value with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match convert v with
      | Ok _ as ok -> ok
      | Error msg -> Error (Printf.sprintf "field %S: %s" name msg))
