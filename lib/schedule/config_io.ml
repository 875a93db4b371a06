(* Textual serialization of schedule points, so that tuned schedules
   can be stored next to a model and reapplied without re-searching
   (AutoTVM ships "tophub" logs for the same reason).

   Format (one line, human-diffable):
     s=4,4,8,8;4,4,8,8 r=8,4,8 o=1 u=2 f=1 v=1 i=1 p=0
*)

let render_factors factors =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun parts ->
            String.concat "," (Array.to_list (Array.map string_of_int parts)))
          factors))

let to_string (cfg : Config.t) =
  Printf.sprintf "s=%s r=%s o=%d u=%d f=%d v=%d i=%d p=%d"
    (render_factors cfg.spatial) (render_factors cfg.reduce) cfg.order_id
    cfg.unroll_id cfg.fuse_levels
    (if cfg.vectorize then 1 else 0)
    (if cfg.inline then 1 else 0)
    cfg.partition_id

(* Only what [to_string] can print back parses: plain decimal integers
   ([-?[0-9]+]; no [0x], [_] or [+]) and [0]/[1] flags. *)
let decimal name text =
  match int_of_string_opt text with
  | Some n when String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) text -> n
  | _ -> failwith (Printf.sprintf "field %s: %S is not a decimal integer" name text)

let flag name text =
  if text = "0" || text = "1" then text = "1"
  else failwith (Printf.sprintf "field %s: %S is not 0 or 1" name text)

let parse_factors name text =
  if String.equal text "" then [||]
  else
    Array.of_list
      (List.map
         (fun axis ->
           Array.of_list (List.map (decimal name) (String.split_on_char ',' axis)))
         (String.split_on_char ';' text))

let known_keys = [ "s"; "r"; "o"; "u"; "f"; "v"; "i"; "p" ]

(* Strict tokenization: every whitespace-separated token must be a
   [known=value] assignment, each key exactly once.  A truncated or
   hand-edited log line must fail loudly here — the old
   first-assoc-match parse silently accepted duplicate keys, unknown
   keys, and trailing garbage, and so could hand back a schedule the
   log never contained. *)
let field fields key =
  match List.assoc_opt key fields with
  | Some value -> value
  | None -> failwith (Printf.sprintf "missing field %s" key)

let parse_fields text =
  let tokens =
    List.filter
      (fun token -> not (String.equal token ""))
      (String.split_on_char ' ' (String.trim text))
  in
  List.fold_left
    (fun fields token ->
      match String.index_opt token '=' with
      | None -> failwith (Printf.sprintf "stray token %S" token)
      | Some i ->
          let key = String.sub token 0 i in
          let value = String.sub token (i + 1) (String.length token - i - 1) in
          if not (List.mem key known_keys) then
            failwith (Printf.sprintf "unknown field %S" key)
          else if List.mem_assoc key fields then
            failwith (Printf.sprintf "duplicate field %S" key)
          else (key, value) :: fields)
    [] tokens

let of_string text =
  match
    let fields = parse_fields text in
    {
      Config.spatial = parse_factors "s" (field fields "s");
      reduce = parse_factors "r" (field fields "r");
      order_id = decimal "o" (field fields "o");
      unroll_id = decimal "u" (field fields "u");
      fuse_levels = decimal "f" (field fields "f");
      vectorize = flag "v" (field fields "v");
      inline = flag "i" (field fields "i");
      partition_id = decimal "p" (field fields "p");
    }
  with
  | cfg -> Ok cfg
  | exception Failure msg -> Error ("Config_io.of_string: " ^ msg)
  | exception Invalid_argument msg -> Error ("Config_io.of_string: " ^ msg)

(* Load a config and check it belongs to a space (shape-mismatched
   logs are a common failure mode when a model changes). *)
let of_string_for space text =
  match of_string text with
  | Error _ as err -> err
  | Ok cfg ->
      if Space.valid space cfg then Ok cfg
      else Error "Config_io.of_string_for: config does not belong to this space"
