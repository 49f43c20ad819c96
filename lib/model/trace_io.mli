(** Persistent execution traces: the [wfc.trace.v1] format, deterministic
    replay, and Perfetto export.

    A {!Trace.t} plus its run {!meta}data is everything needed to reproduce
    an execution: the runtime is deterministic given the adversary's
    decision sequence, and that sequence can be read back off the trace
    ({!decisions_of}). Record → {!replay} → record again yields a
    byte-identical canonical JSON trace, which makes stored traces both a
    debugging artifact and a regression oracle (re-run the §3.5 and
    Prop 4.1 checkers on the replayed events).

    Serialization goes through {!Wfc_obs.Json}, whose canonical emitter
    (sorted keys, fixed float format) guarantees that equal values produce
    equal bytes. *)

val schema_version : string
(** ["wfc.trace.v1"]. *)

type meta = {
  protocol : string;  (** e.g. ["emulation.full-info"] — which spec to rebuild on replay *)
  procs : int;
  rounds : int;  (** protocol-specific size parameter (emulation: snapshot rounds) *)
  seed : int option;  (** adversary seed, if the run was randomly scheduled *)
  crash : int list;  (** processes the adversary was asked to crash *)
}

val meta :
  ?seed:int -> ?crash:int list -> protocol:string -> procs:int -> rounds:int -> unit -> meta
(** [crash] is sorted and deduplicated. *)

(** {1 Serialization} *)

val to_json : ('v -> Wfc_obs.Json.t) -> meta -> 'v Trace.t -> Wfc_obs.Json.t
(** [{"schema"; "meta"; "events"}]; each event is an object tagged by
    ["ev"] with its logical time under ["t"]. *)

val of_json :
  (Wfc_obs.Json.t -> ('v, string) result) ->
  Wfc_obs.Json.t ->
  (meta * 'v Trace.t, string) result

val validate : Wfc_obs.Json.t -> (unit, string) result
(** Structural validation with opaque payloads — the producer-side parser
    run with an accept-anything value decoder. *)

val string_value : string -> Wfc_obs.Json.t

val string_of_value : Wfc_obs.Json.t -> (string, string) result
(** Value codec for [string Trace.t], the rendered form all built-in
    protocols serialize as. *)

(** {1 Deterministic replay} *)

val decisions_of : 'v Trace.t -> Runtime.decision list
(** The adversary's decision sequence, recovered 1:1 from the event stream:
    each cell-operation event was one [Step], each firing one [Fire], each
    crash one [Crash]. Arrive/note/decide events are by-products of eager
    settling and are regenerated on replay. *)

val replay : Runtime.decision list -> Runtime.strategy
(** Consumes the recorded decisions in order; [Halt]s when exhausted. The
    returned strategy is single-use (it owns a cursor). *)

(** {1 Perfetto export} *)

val to_trace_events :
  ?pid:int -> show:('v -> string) -> 'v Trace.t -> Wfc_obs.Trace_event.event list
(** Chrome [trace_event] timeline of a run: one named thread per process
    plus an ["adversary"] track; WriteRead invocations become complete
    spans from arrival to firing, cell operations / notes / decisions /
    crashes become instants. One logical tick is rendered as 1 ms so
    unit-length intervals stay visible. Wrap with
    {!Wfc_obs.Trace_event.to_json} for a file Perfetto/chrome://tracing
    can open. *)
