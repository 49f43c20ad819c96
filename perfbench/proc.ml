(* Spawned [wfc serve] daemons, and what /proc says about them.

   Every daemon runs at the serving defaults ([--solvers 2], queue 64, no
   event log) with WFC_DOMAINS and WFC_PORTFOLIO removed from its
   environment, so its search runs on one domain. Daemons are tracked
   until reaped: [reap_all] (also run at exit) kills any left over. *)

type t = { pid : int; socket : string; start_s : float  (** spawn to first pong *) }

let now = Unix.gettimeofday

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let env () =
  Array.of_list
    (List.filter
       (fun kv ->
         not
           (String.starts_with ~prefix:"WFC_DOMAINS=" kv
           || String.starts_with ~prefix:"WFC_PORTFOLIO=" kv))
       (Array.to_list (Unix.environment ())))

let settings = "solvers=2 queue=64 WFC_DOMAINS=unset (1 domain) event-log=off"

let wait_pid pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> Hashtbl.remove live pid
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Hashtbl.remove live pid
  in
  go ()

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_pid pid

let reap_all () = List.iter kill (List.of_seq (Hashtbl.to_seq_keys live))

let () = at_exit reap_all

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
    Hashtbl.remove live pid;
    true
  | exception Unix.Unix_error _ -> true

(* Spawns a daemon and returns once a ping answers. *)
let start ~wfc ~socket ~store ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let spawned_at = now () in
  let pid =
    Unix.create_process_env wfc
      [| wfc; "serve"; "--socket"; socket; "--store"; store |]
      (env ()) Unix.stdin out out
  in
  Unix.close out;
  Hashtbl.replace live pid ();
  let rec ping () =
    let up =
      match Wfc_serve.Client.connect ~socket with
      | Error _ -> false
      | Ok c ->
        let ok = Wfc_serve.Client.ping c in
        Wfc_serve.Client.close c;
        ok
    in
    if up then now () -. spawned_at
    else if exited pid then failwith ("wfc serve exited during start-up; see " ^ log)
    else if now () -. spawned_at > 60. then (
      kill pid;
      failwith "wfc serve did not answer a ping within 60 s")
    else (
      Unix.sleepf 0.0002;
      ping ())
  in
  let start_s = ping () in
  { pid; socket; start_s }

(* SIGKILL, then reap. Every daemon here is throwaway, and every answer it
   gave was filed (record and manifest fsync'd) before it was sent, so a
   priming daemon's store is complete when its last answer arrives. A
   clean shutdown would wait out the daemon's 0.2 s accept tick and put
   that wait into setup_s. *)
let stop d = kill d.pid

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* VmHWM of the daemon, in MiB. *)
let rss_peak_mb d =
  let status = read_file (Printf.sprintf "/proc/%d/status" d.pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* utime + stime of the daemon, in ms (USER_HZ is 100 on Linux). The
   command name may hold spaces, so fields are counted after its ')'. *)
let cpu_ms d =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" d.pid) in
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) *. 10.

(* Ticks of all CPUs of the machine so far, from /proc/stat: (steal,
   total). Steal is time the hypervisor gave this machine's CPUs to other
   guests. *)
let host_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  let ticks =
    List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' line))
  in
  (List.nth ticks 7, List.fold_left ( + ) 0 ticks)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_tree src dst =
  match (Unix.lstat src).Unix.st_kind with
  | Unix.S_DIR ->
    Unix.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  | _ ->
    let data = read_file src in
    let oc = open_out_bin dst in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)
