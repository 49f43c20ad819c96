let schema_version = "wfc.log.v1"

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" -> Ok Warn
  | "error" -> Ok Error
  | s -> Error (Printf.sprintf "unknown log level %S (debug|info|warn|error)" s)

type t = {
  threshold : int;
  m : Mutex.t;
  mutable oc : out_channel option;
}

let open_log ?(level = Info) path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  { threshold = severity level; m = Mutex.create (); oc = Some oc }

let enabled t lvl = severity lvl >= t.threshold

(* The envelope fields always win over caller payload: a log line whose
   "level" disagrees with its gating would defeat the validator. *)
let envelope_key k = k = "schema" || k = "ts" || k = "level" || k = "event"

(* A log write that fails (a full disk, a closed pipe) is counted and
   dropped: logging must never fail the request it describes, and the
   mutex must be released on that path too, or every later event blocks. *)
let c_write_errors = Metrics.counter "obs.log.write_errors"

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let event t lvl name fields =
  if enabled t lvl then begin
    let line =
      Json.to_line
        (Json.Obj
           (("schema", Json.String schema_version)
           :: ("ts", Json.Float (Metrics.now_s ()))
           :: ("level", Json.String (level_name lvl))
           :: ("event", Json.String name)
           :: List.filter (fun (k, _) -> not (envelope_key k)) fields))
    in
    locked t (fun () ->
        match t.oc with
        | None -> ()
        | Some oc -> (
          try
            output_string oc line;
            output_char oc '\n';
            flush oc
          with Sys_error _ -> Metrics.incr c_write_errors))
  end

let close t =
  locked t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        (try flush oc with Sys_error _ -> Metrics.incr c_write_errors);
        close_out_noerr oc)

(* ------------------------------------------------------------------ *)
(* validation                                                           *)
(* ------------------------------------------------------------------ *)

let validate_line j =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "schema" j with
    | Some (Json.String s) when s = schema_version -> Ok ()
    | Some (Json.String s) ->
      Error (Printf.sprintf "schema is %S, expected %S" s schema_version)
    | _ -> Error "missing \"schema\" tag"
  in
  let* () =
    match Json.member "ts" j with
    | Some (Json.Float _ | Json.Int _) -> Ok ()
    | _ -> Error "missing numeric \"ts\""
  in
  let* () =
    match Json.member "level" j with
    | Some (Json.String s) -> Result.map (fun _ -> ()) (level_of_string s)
    | _ -> Error "missing string \"level\""
  in
  match Json.member "event" j with
  | Some (Json.String _) -> Ok ()
  | _ -> Error "missing string \"event\""

let validate contents : (int, string) result =
  let lines = String.split_on_char '\n' contents in
  let rec go lineno count : string list -> (int, string) result = function
    | [] ->
      if count = 0 then Error "empty log: no events" else Ok count
    | line :: rest when String.trim line = "" -> go (lineno + 1) count rest
    | line :: rest -> (
      match Json.parse line with
      | Error e -> Error (Printf.sprintf "line %d: not valid JSON (%s)" lineno e)
      | Ok j -> (
        match validate_line j with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok () -> go (lineno + 1) (count + 1) rest))
  in
  go 1 0 lines
