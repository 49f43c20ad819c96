(** The daemon's wire protocol: length-prefixed canonical JSON frames over a
    Unix-domain stream socket.

    Framing: each message is a 4-byte big-endian payload length followed by
    that many bytes of JSON. Frames above {!max_frame} are rejected before
    allocation, and a frame's buffer grows only as its bytes arrive, so a
    garbled or lying length prefix cannot make the other side allocate
    much more than the peer actually sent. The protocol is strict
    request/response: the client writes one request frame and reads
    exactly one response frame, any number of times per connection.

    Requests ([op] tag): {v
      {"op": "query", "task": NAME, "procs": P, "param": K, "max_level": B,
       "model": M, "req_id": ID}
      {"op": "ping"}   {"op": "stats"}   {"op": "shutdown"}
    v}

    [model] is a canonical {!Wfc_tasks.Model} name; a request without the
    field (a pre-model client) is read as ["wait-free"], so old clients keep
    getting exactly the answers they always got. [req_id] is an optional
    opaque correlation id: the daemon echoes it in the verdict response and
    stamps it on every event-log line of the request, and assigns one
    itself when a pre-telemetry client omits it.

    Responses ([status] tag): {v
      {"status": "ok", "source": "store"|"computed"|"coalesced",
       "record": <wfc.store.v2>, "req_id": ID,
       "timing": {"queue_wait_s": Q, "solve_s": S, "store_s": T, "total_s": W}}
      {"status": "shed"}                      queue full — retry or solve inline
      {"status": "pong", "version": V, "uptime_s": U}   {"status": "bye"}
      {"status": "stats", "metrics": {...}, "server": {...}}
      {"status": "error", "message": "..."}
    v}

    [req_id], [timing], [version], [uptime_s] and [server] are all optional
    on decode (absent from a pre-telemetry daemon's responses), mirroring
    the model-field compatibility scheme: new clients against old daemons
    see [None], old clients ignore the new fields, and the [record] bytes —
    the part with verdict semantics — are untouched either way. [timing] is
    the daemon-side stage breakdown: time spent waiting in the solve queue,
    in the search, in store I/O, and end-to-end inside the daemon.

    Tasks travel by {e name}: the daemon rebuilds the complex through
    {!Wfc_tasks.Instances.by_name} — the same registry an inline solve uses
    — and content-addresses the result by {!Wfc_tasks.Task.digest}, so a
    wire query and a local solve can never disagree about which question is
    being asked. *)

val max_frame : int
(** 16 MiB. *)

type spec = {
  task : string;
  procs : int;
  param : int;
  max_level : int;
  model : string;
  symmetry : bool;
  collapse : bool;
}
(** A named task question under a named model, as [wfc solve] would pose
    it. [model] is a canonical {!Wfc_tasks.Model} name ("wait-free" for the
    historical behaviour). [symmetry]/[collapse] toggle the engine's search
    reducers ({!Wfc_core.Solvability.options}); they are verdict-preserving,
    so absent fields decode to [true] — pre-reducer clients get the pruned
    engine and byte-identical answers. *)

val spec_to_string : spec -> string
(** ["name(procs=P,param=K)"] — the informational [task] field of store
    records, shared by every producer so records diff cleanly. The model is
    deliberately {e not} part of this string; it travels in the record's
    own [model] field. *)

type request = Query of { spec : spec; req_id : string option } | Ping | Stats | Shutdown

type source = From_store | Computed | Coalesced

val source_name : source -> string
(** ["store"] / ["computed"] / ["coalesced"]. *)

type timing = { queue_wait_s : float; solve_s : float; store_s : float; total_s : float }
(** Per-request stage breakdown, daemon-side seconds. A store hit has
    [queue_wait_s = solve_s = 0.]; a coalesced answer reports the stages of
    the computation it attached to. *)

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

val request_to_json : request -> Wfc_obs.Json.t

val request_of_json : Wfc_obs.Json.t -> (request, string) result

val timing_to_json : timing -> Wfc_obs.Json.t

val response_to_json : response -> Wfc_obs.Json.t

val response_of_json : Wfc_obs.Json.t -> (response, string) result

val frame_bytes : Wfc_obs.Json.t -> Bytes.t
(** One frame, header and payload in one buffer. *)

val write_frame : Unix.file_descr -> Wfc_obs.Json.t -> unit
(** Writes {!frame_bytes} in one write, handling short writes. @raise Unix.Unix_error on a
    dead peer (the daemon ignores [SIGPIPE], so a closed socket surfaces
    here as [EPIPE], not a process kill). *)

val read_frame : Unix.file_descr -> (Wfc_obs.Json.t, string) result
(** Reads one frame. [Error] on EOF, a truncated frame, an oversized
    length prefix, or unparsable JSON. *)

val read_frame_opt : Unix.file_descr -> (Wfc_obs.Json.t option, string) result
(** As {!read_frame}, but a clean close at a frame boundary is [Ok None],
    so a reader can tell a client that left from one that sent a bad
    frame. *)

(** {2 Incremental decoding}

    The daemon reads nonblocking sockets a chunk at a time. A decoder
    buffers a connection's bytes and hands back whole frames, with the
    same results and error strings as {!read_frame_opt}. *)

type decoder

val decoder : unit -> decoder

val decoder_read : decoder -> Unix.file_descr -> int
(** One [read] into the decoder's buffer; [0] means the peer closed. Call
    it only after {!decode} returned [None]. The buffer starts at 1 KiB and
    doubles only once full, never past the frame's claimed length, so a
    lying length prefix costs no more than the bytes actually sent.
    @raise Unix.Unix_error as [Unix.read] does ([EAGAIN] on a nonblocking
    descriptor with nothing to read). *)

val decode : decoder -> (Wfc_obs.Json.t option, string) result option
(** The next frame, consumed from the buffer: [Some r] where [r] is what
    {!read_frame_opt} would return on the same bytes, or [None] while the
    buffered bytes end inside a frame and the peer has not closed. *)
