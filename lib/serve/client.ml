type t = { fd : Unix.file_descr }

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok { fd }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let request t req =
  match Wire.write_frame t.fd (Wire.request_to_json req) with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "send failed: %s" (Unix.error_message e))
  | () -> (
    match Wire.read_frame t.fd with
    | Error e -> Error e
    | Ok j -> Wire.response_of_json j
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "receive failed: %s" (Unix.error_message e)))

let query ?req_id t spec = request t (Wire.Query { spec; req_id })

let ping t = match request t Wire.Ping with Ok (Wire.Pong _) -> true | _ -> false

let ping_info t =
  match request t Wire.Ping with
  | Ok (Wire.Pong { version; uptime_s }) -> Ok (version, uptime_s)
  | Ok _ -> Error "unexpected response to ping"
  | Error e -> Error e

let stats t =
  match request t Wire.Stats with
  | Ok (Wire.Metrics { metrics; server }) -> Ok (metrics, server)
  | Ok _ -> Error "unexpected response to stats"
  | Error e -> Error e

let shutdown t =
  match request t Wire.Shutdown with
  | Ok Wire.Bye -> Ok ()
  | Ok _ -> Error "unexpected response to shutdown"
  | Error e -> Error e
