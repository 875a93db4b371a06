(* Shared durability primitives for the JSONL trails (tuning log,
   checkpoints, shards).  See the interface for the append contract:
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

(* fcntl record locks exclude processes, not domains of one process —
   a second domain taking the "same" lock succeeds immediately.  Pair
   every file lock with a process-local mutex keyed by path. *)
let local_locks : (string, Mutex.t) Hashtbl.t = Hashtbl.create 16
let local_locks_mutex = Mutex.create ()

let local_lock path =
  Mutex.lock local_locks_mutex;
  let m =
    match Hashtbl.find_opt local_locks path with
    | Some m -> m
    | None ->
        let m = Mutex.create () in
        Hashtbl.add local_locks path m;
        m
  in
  Mutex.unlock local_locks_mutex;
  m

let with_file_lock path f =
  let m = local_lock path in
  Mutex.lock m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock m)
    (fun () ->
      let lock_fd =
        Unix.openfile (path ^ ".lock") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
      in
      Fun.protect
        ~finally:(fun () -> Unix.close lock_fd)
        (fun () ->
          Unix.lockf lock_fd Unix.F_LOCK 0;
          Fun.protect
            ~finally:(fun () ->
              ignore (Unix.lseek lock_fd 0 Unix.SEEK_SET);
              Unix.lockf lock_fd Unix.F_ULOCK 0)
            f))

let replace_file ~src ~dst = Sys.rename src dst
