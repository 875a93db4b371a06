(* The host line stamped on every run: the numbers only mean something
   next to the machine, compiler and commit that produced them. *)

let first_line_of_command cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  | exception Unix.Unix_error _ -> "unknown"

let read_file path =
  match open_in path with
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          let rec lines acc =
            match input_line ic with
            | l -> lines (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          lines [])
  | exception Sys_error _ -> []

let cpu_model () =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.starts_with ~prefix:"model name" line ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (read_file "/proc/cpuinfo")
  |> Option.value ~default:"unknown"

(* Only a repository rooted in the working directory counts: a source
   checkout without one reports "unknown" rather than the commit of
   some enclosing repository. *)
let commit () =
  if Sys.file_exists ".git" then first_line_of_command "git rev-parse HEAD" else "unknown"

let line () =
  Printf.sprintf "host: nproc=%d cpu=%S ocaml=%s cc=%S commit=%s"
    (Domain.recommended_domain_count ())
    (cpu_model ()) Sys.ocaml_version
    (first_line_of_command "cc --version")
    (commit ())
