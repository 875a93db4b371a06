(* Shared durability primitives for the JSONL trails (tuning log,
   checkpoints).  See the interface for the append contract:
   one complete line per [write(2)] on an [O_APPEND] descriptor. *)

(* The whole line — including the newline — must reach the kernel as
   ONE write.  [Unix.write] cannot promise that: it stages the buffer
   through a fixed 64 KiB internal buffer and loops over several
   write(2) calls for anything longer, tearing the line exactly like
   the channel path did.  The stub hands the full buffer to a single
   write(2); only a partial write (ENOSPC boundary) makes it loop, and
   retrying the remainder is the best that can be done then (the torn
   line is skipped by tolerant loading). *)
external write_once : Unix.file_descr -> Bytes.t -> int = "ft_store_write_once"

(* A crash mid-append can leave a final line without its newline.
   Appending straight after it would glue this record onto the torn
   fragment, and loading would skip both. *)
let ends_torn fd =
  let size = (Unix.fstat fd).Unix.st_size in
  size > 0
  &&
  let last = Bytes.create 1 in
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n'

let append_line path line =
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let line = if ends_torn fd then "\n" ^ line else line in
      let len = String.length line in
      let bytes = Bytes.create (len + 1) in
      Bytes.blit_string line 0 bytes 0 len;
      Bytes.set bytes len '\n';
      let written = write_once fd bytes in
      if written <> len + 1 then
        failwith
          (Printf.sprintf "Store_io.append_line %s: short write (%d of %d)"
             path written (len + 1)))

let load_jsonl path decode =
  if not (Sys.file_exists path) then ([], [])
  else
    In_channel.with_open_text path (fun ic ->
        let rec go n values issues =
          match In_channel.input_line ic with
          | None -> (List.rev values, List.rev issues)
          | Some line when String.trim line = "" -> go (n + 1) values issues
          | Some line -> (
              match decode line with
              | Ok v -> go (n + 1) (v :: values) issues
              | Error reason -> go (n + 1) values ((n, reason) :: issues))
        in
        go 1 [] [])
