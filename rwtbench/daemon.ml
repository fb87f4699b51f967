(* [rwt serve] as its own process, and a closed-loop client: one
   connection, one request in flight. *)

open Rwt_util

let rwt_exe () =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "rwt.exe"))

(* every daemon still running; stopped on any exit path *)
let live : int list ref = ref []

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type t = { pid : int; conn : conn; log : string }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
    Some { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ -> Unix.close fd; None

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let kill_wait pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter kill_wait !live)

(* Start a daemon on [dir]/d.sock and wait until an echo round-trips.
   [gc_stats] makes the runtime print its allocation totals to the
   daemon's log when it exits (read back by {!allocated_mb}). *)
let start ?(extra = []) ?(gc_stats = false) dir =
  let sock = Filename.concat dir "d.sock" and log = Filename.concat dir "daemon.log" in
  if Sys.file_exists sock then Sys.remove sock;
  let rwt = rwt_exe () in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let env = Unix.environment () in
  let env = if gc_stats then Array.append env [| "OCAMLRUNPARAM=v=0x400" |] else env in
  let pid =
    Unix.create_process_env rwt
      (Array.of_list ([ rwt; "serve"; "--socket"; sock; "--workers"; "1" ] @ extra))
      env null logfd logfd
  in
  Unix.close logfd;
  Unix.close null;
  live := pid :: !live;
  let deadline = Util.now () +. 30.0 in
  let rec await () =
    match connect sock with
    | Some c -> c
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> live := List.filter (( <> ) pid) !live; failwith "rwt serve exited during start-up");
      if Util.now () > deadline then failwith "rwt serve did not start within 30 s";
      Unix.sleepf 0.0005;
      await ()
  in
  let conn = await () in
  ignore (request conn {|{"req":"echo"}|});
  { pid; conn; log }

let peak_mb d = Util.peak_rss_mb (string_of_int d.pid)

(* The daemon's own counters, from its [metrics] request. *)
let counters d =
  match Json.of_string (request d.conn {|{"req":"metrics","format":"json"}|}) with
  | Ok (Json.Obj kv) -> (
    match List.assoc_opt "metrics" kv with
    | Some (Json.Obj m) -> (
      match List.assoc_opt "counters" m with
      | Some (Json.Obj cs) ->
        List.filter_map (fun (k, v) -> match v with Json.Int n -> Some (k, n) | _ -> None) cs
      | _ -> [])
    | _ -> [])
  | _ -> []

let stop d =
  (try Unix.close d.conn.fd with Unix.Unix_error _ -> ());
  kill_wait d.pid

(* MB allocated over a stopped daemon's life, from the totals a
   [gc_stats] daemon prints at exit; nan when they are missing. *)
let allocated_mb d =
  let ic = open_in d.log in
  let rec scan acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line ->
      scan
        (match Scanf.sscanf line "allocated_words: %f" Fun.id with
         | w -> w *. float_of_int (Sys.word_size / 8) /. 1e6
         | exception _ -> acc)
  in
  let v = scan nan in
  close_in ic;
  v
