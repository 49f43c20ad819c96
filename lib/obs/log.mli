(** Leveled structured event log: one [wfc.log.v1] JSON object per line.

    The telemetry discipline of the repository's other artifacts applied to
    logging: every line is a complete, schema-tagged canonical JSON object
    — machine-validated by [wfc check-json] exactly like [wfc.obs.v1]
    reports and [wfc.trace.v1] traces — never a printf string. Line shape:
    {v
      {"schema":"wfc.log.v1","ts":1723.456789,"level":"info",
       "event":"query","req_id":"...", ...event-specific fields...}
    v}

    [schema], [ts] (wall-clock seconds), [level] and [event] are always
    present; everything else is the emitting site's payload. Lines are
    rendered with {!Json.to_line} (sorted keys, canonical floats), written
    under one mutex and flushed per event, so concurrent daemon threads
    never interleave bytes and a SIGKILLed process loses at most the line
    being written.

    Severity gating is by {!level} at the writer: events below the
    configured threshold cost one atomic load and no allocation. *)

val schema_version : string
(** ["wfc.log.v1"]. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"] / ["info"] / ["warn"] / ["error"]. *)

val level_of_string : string -> (level, string) result

type t

val open_log : ?level:level -> string -> t
(** Opens (appending) a JSONL event log at the path. Default threshold:
    [Info]. @raise Sys_error if the file cannot be opened. *)

val enabled : t -> level -> bool
(** Would an event at this level be written? Lets callers skip building
    expensive payloads. *)

val event : t -> level -> string -> (string * Json.t) list -> unit
(** [event t lvl name fields] writes one line carrying the standard
    envelope plus [fields], if [lvl] passes the threshold. A field named
    [schema], [ts], [level] or [event] in [fields] is ignored — the
    envelope wins. Never raises: a failed write (say, a full disk) is
    dropped and counted in [obs.log.write_errors]. *)

val close : t -> unit
(** Flushes and closes; a failed flush is counted like a failed
    {!event}. Further {!event} calls are silently dropped. *)

val validate_line : Json.t -> (unit, string) result
(** One parsed log line: schema tag, numeric [ts], known [level], string
    [event]. *)

val validate : string -> (int, string) result
(** Validates raw file contents as a [wfc.log.v1] JSONL stream: every
    non-empty line must parse as JSON and pass {!validate_line}. Returns
    the number of validated events; errors carry the 1-based line number.
    An empty file is an error (a log with no [serve.start] was never a
    log). *)
