let max_frame = 16 * 1024 * 1024

type spec = {
  task : string;
  procs : int;
  param : int;
  max_level : int;
  model : string;
  symmetry : bool;
  collapse : bool;
}

let spec_to_string s = Printf.sprintf "%s(procs=%d,param=%d)" s.task s.procs s.param

type request = Query of { spec : spec; req_id : string option } | Ping | Stats | Shutdown

type source = From_store | Computed | Coalesced

let source_name = function
  | From_store -> "store"
  | Computed -> "computed"
  | Coalesced -> "coalesced"

type timing = { queue_wait_s : float; solve_s : float; store_s : float; total_s : float }

type response =
  | Verdict of {
      source : source;
      record : Wfc_storage.Record.record;
      req_id : string option;
      timing : timing option;
    }
  | Shed
  | Pong of { version : string option; uptime_s : float option }
  | Metrics of { metrics : Wfc_obs.Json.t; server : Wfc_obs.Json.t option }
  | Bye
  | Failed of string

let request_to_json r =
  let open Wfc_obs.Json in
  match r with
  | Query { spec = s; req_id } ->
    Obj
      ([
         ("op", String "query");
         ("task", String s.task);
         ("procs", Int s.procs);
         ("param", Int s.param);
         ("max_level", Int s.max_level);
         ("model", String s.model);
       ]
      @ match req_id with None -> [] | Some id -> [ ("req_id", String id) ])
  | Ping -> Obj [ ("op", String "ping") ]
  | Stats -> Obj [ ("op", String "stats") ]
  | Shutdown -> Obj [ ("op", String "shutdown") ]

let ( let* ) = Result.bind

let string_member key j =
  match Wfc_obs.Json.member key j with
  | Some (Wfc_obs.Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing or non-string %S" key)

let int_member key j =
  match Wfc_obs.Json.member key j with
  | Some (Wfc_obs.Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing or non-int %S" key)

(* Absent optional fields decode to [None] — the compatibility scheme that
   lets pre-telemetry and post-telemetry peers interoperate in both
   directions (same contract as the absent-"model" default below). *)
let opt_string_member key j =
  match Wfc_obs.Json.member key j with
  | None -> Ok None
  | Some (Wfc_obs.Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "non-string %S" key)

let number_member key j =
  match Wfc_obs.Json.member key j with
  | Some (Wfc_obs.Json.Float f) -> Ok f
  | Some (Wfc_obs.Json.Int i) -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "missing or non-numeric %S" key)

let request_of_json j =
  let* op = string_member "op" j in
  match op with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "query" ->
    let* task = string_member "task" j in
    let* procs = int_member "procs" j in
    let* param = int_member "param" j in
    let* max_level = int_member "max_level" j in
    (* pre-model clients omit the field; their questions are wait-free *)
    let* model =
      match Wfc_obs.Json.member "model" j with
      | None -> Ok "wait-free"
      | Some (Wfc_obs.Json.String m) when m <> "" -> Ok m
      | Some _ -> Error "non-string or empty \"model\""
    in
    (* older clients may still send "symmetry"/"collapse" reducer flags;
       every solve runs the same engine, so they are ignored *)
    let* req_id = opt_string_member "req_id" j in
    if procs < 1 then Error "procs must be >= 1"
    else if max_level < 0 then Error "max_level must be >= 0"
    else
      Ok
        (Query
           { spec = { task; procs; param; max_level; model; symmetry = true; collapse = true }; req_id })
  | op -> Error (Printf.sprintf "unknown op %S" op)

let timing_to_json t =
  let open Wfc_obs.Json in
  Obj
    [
      ("queue_wait_s", Float t.queue_wait_s);
      ("solve_s", Float t.solve_s);
      ("store_s", Float t.store_s);
      ("total_s", Float t.total_s);
    ]

let timing_of_json j =
  let* queue_wait_s = number_member "queue_wait_s" j in
  let* solve_s = number_member "solve_s" j in
  let* store_s = number_member "store_s" j in
  let* total_s = number_member "total_s" j in
  Ok { queue_wait_s; solve_s; store_s; total_s }

let response_to_json r =
  let open Wfc_obs.Json in
  match r with
  | Verdict { source; record; req_id; timing } ->
    Obj
      ([
         ("status", String "ok");
         ("source", String (source_name source));
         ("record", Wfc_storage.Record.record_to_json record);
       ]
      @ (match req_id with None -> [] | Some id -> [ ("req_id", String id) ])
      @ match timing with None -> [] | Some t -> [ ("timing", timing_to_json t) ])
  | Shed -> Obj [ ("status", String "shed") ]
  | Pong { version; uptime_s } ->
    Obj
      (("status", String "pong")
      :: ((match version with None -> [] | Some v -> [ ("version", String v) ])
         @ match uptime_s with None -> [] | Some u -> [ ("uptime_s", Float u) ]))
  | Metrics { metrics; server } ->
    Obj
      ([ ("status", String "stats"); ("metrics", metrics) ]
      @ match server with None -> [] | Some s -> [ ("server", s) ])
  | Bye -> Obj [ ("status", String "bye") ]
  | Failed msg -> Obj [ ("status", String "error"); ("message", String msg) ]

let response_of_json j =
  let* status = string_member "status" j in
  match status with
  | "shed" -> Ok Shed
  | "pong" ->
    let* version = opt_string_member "version" j in
    let uptime_s =
      match number_member "uptime_s" j with Ok u -> Some u | Error _ -> None
    in
    Ok (Pong { version; uptime_s })
  | "bye" -> Ok Bye
  | "error" ->
    let* msg = string_member "message" j in
    Ok (Failed msg)
  | "stats" -> (
    match Wfc_obs.Json.member "metrics" j with
    | Some m -> Ok (Metrics { metrics = m; server = Wfc_obs.Json.member "server" j })
    | None -> Error "stats response without \"metrics\"")
  | "ok" -> (
    let* source = string_member "source" j in
    let* source =
      match source with
      | "store" -> Ok From_store
      | "computed" -> Ok Computed
      | "coalesced" -> Ok Coalesced
      | s -> Error (Printf.sprintf "unknown source %S" s)
    in
    let* req_id = opt_string_member "req_id" j in
    let* timing =
      match Wfc_obs.Json.member "timing" j with
      | None -> Ok None
      | Some tj -> Result.map Option.some (timing_of_json tj)
    in
    match Wfc_obs.Json.member "record" j with
    | None -> Error "ok response without \"record\""
    | Some rj ->
      let* record = Wfc_storage.Record.record_of_json rj in
      Ok (Verdict { source; record; req_id; timing }))
  | s -> Error (Printf.sprintf "unknown status %S" s)

(* ---- framing ---- *)

let really_write fd bytes off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    let n = Unix.write fd bytes !off !len in
    off := !off + n;
    len := !len - n
  done

(* Header and payload in one buffer, so a frame leaves in one write and
   the reader never wakes on a bare header. *)
let frame_bytes j =
  let payload = Wfc_obs.Json.to_string j in
  let n = String.length payload in
  let frame = Bytes.create (4 + n) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.blit_string payload 0 frame 4 n;
  frame

let write_frame fd j =
  let frame = frame_bytes j in
  really_write fd frame 0 (Bytes.length frame)

let read_chunk = 64 * 1024

(* [Ok buf] or [Error `Eof] (clean close at a frame boundary) / [Error `Short]
   (peer died mid-frame). The buffer starts at one [read_chunk] at most and
   doubles, capped at [len], only once the bytes already read fill it: a
   header claiming [max_frame] bytes costs one chunk until the peer sends
   them. *)
let really_read fd len =
  let rec go buf off =
    if off = len then Ok buf
    else
      let buf =
        if off < Bytes.length buf then buf else Bytes.extend buf 0 (min off (len - off))
      in
      match Unix.read fd buf off (Bytes.length buf - off) with
      | 0 -> if off = 0 then Error `Eof else Error `Short
      | n -> go buf (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go buf off
  in
  go (Bytes.create (min len read_chunk)) 0

let read_frame_opt fd =
  match really_read fd 4 with
  | Error `Eof -> Ok None
  | Error `Short -> Error "truncated frame header"
  | Ok header -> (
    let n = Int32.to_int (Bytes.get_int32_be header 0) in
    if n < 0 || n > max_frame then Error (Printf.sprintf "frame length %d out of bounds" n)
    else
      match really_read fd n with
      | Error (`Eof | `Short) -> Error "truncated frame payload"
      | Ok payload -> (
        match Wfc_obs.Json.parse (Bytes.unsafe_to_string payload) with
        | Ok j -> Ok (Some j)
        | Error e -> Error (Printf.sprintf "bad frame payload: %s" e)))

let read_frame fd =
  match read_frame_opt fd with
  | Ok (Some j) -> Ok j
  | Ok None -> Error "connection closed"
  | Error e -> Error e

(* ---- incremental decoding ---- *)

(* The bytes read so far, [buf.[0 .. len)], from the start of the next
   frame on. A reader that decodes until [None] before it reads again
   only ever grows a buffer filled by one partial frame, so the growth
   rule is [really_read]'s: double once full, capped at the frame's own
   length. *)
type decoder = { mutable buf : Bytes.t; mutable len : int; mutable closed : bool }

(* Requests are a few hundred bytes: one decoder per connection starts in
   the minor heap. *)
let decoder_start = 1024

let decoder () = { buf = Bytes.create decoder_start; len = 0; closed = false }

let frame_length buf = Int32.to_int (Bytes.get_int32_be buf 0)

let decoder_read d fd =
  if d.len = Bytes.length d.buf then begin
    let missing = 4 + frame_length d.buf - d.len in
    if missing <= 0 then invalid_arg "Wire.decoder_read: a whole frame is still buffered";
    d.buf <- Bytes.extend d.buf 0 (min d.len missing)
  end;
  let n = Unix.read fd d.buf d.len (Bytes.length d.buf - d.len) in
  if n = 0 then d.closed <- true else d.len <- d.len + n;
  n

let decode d =
  if d.len < 4 then
    if not d.closed then None
    else if d.len = 0 then Some (Ok None)
    else Some (Error "truncated frame header")
  else
    let n = frame_length d.buf in
    if n < 0 || n > max_frame then Some (Error (Printf.sprintf "frame length %d out of bounds" n))
    else if d.len < 4 + n then if d.closed then Some (Error "truncated frame payload") else None
    else begin
      let payload = Bytes.sub_string d.buf 4 n in
      let rest = d.len - 4 - n in
      if rest = 0 && Bytes.length d.buf > decoder_start then d.buf <- Bytes.create decoder_start
      else Bytes.blit d.buf (4 + n) d.buf 0 rest;
      d.len <- rest;
      match Wfc_obs.Json.parse payload with
      | Ok j -> Some (Ok (Some j))
      | Error e -> Some (Error (Printf.sprintf "bad frame payload: %s" e))
    end
