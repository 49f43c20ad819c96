(** The verdict record: one decided [(task, model, max_level, budget)]
    question, plus its provenance (search cost, timestamps).

    This is the [wfc.store.v2] object of the serving layer. Its canonical
    JSON rendering ({!record_to_json}) is the one record format at rest,
    and {!record_of_json} the one decoder. The renderings and parsing are
    byte-for-byte those of the pre-engine [Wfc_serve.Store], so existing
    records, wire frames and [check-json] artifacts are unaffected. *)

val schema_version : string
(** ["wfc.store.v2"]. *)

type record = {
  digest : string;  (** {!Wfc_tasks.Task.digest} of the task *)
  task : string;  (** informational: the instance spec, e.g. ["consensus(procs=2,param=2)"] *)
  model : string;  (** canonical {!Wfc_tasks.Model} name, e.g. ["k-set:2"] *)
  procs : int;
  max_level : int;
  budget : int;
  outcome : Wfc_core.Solvability.outcome;
  created_at : float;  (** unix seconds at commit; not part of the verdict *)
}

val make :
  task:Wfc_tasks.Task.t ->
  spec:string ->
  ?model:string ->
  max_level:int ->
  budget:int ->
  Wfc_core.Solvability.outcome ->
  record
(** Builds a record for [outcome], taking the digest the task carries
    and stamping [created_at] with the current time. [model] defaults to
    ["wait-free"]. *)

val record_to_json : record -> Wfc_obs.Json.t
(** The full [wfc.store.v2] object, including the provenance fields: the
    search-cost tallies ([nodes], [backtracks], [prunes]) and the
    non-deterministic timing fields ([elapsed], [created_at]). *)

val verdict_json : record -> Wfc_obs.Json.t
(** {!record_to_json} minus the provenance fields: every byte is a
    deterministic function of the question — verdict, level and decide
    table, never search cost. A stored record, a fresh daemon computation,
    an inline [wfc solve] and a reducer-pruned search all render the
    identical object — the invariant the CI smoke diffs. *)

val record_of_json : Wfc_obs.Json.t -> (record, string) result
(** Accepts [wfc.store.v2] only: any other schema tag, the pre-model
    [wfc.store.v1] included, is an [Error] naming it. Past the JSON shape
    it enforces the record's semantic invariants: 32-hex digest, non-empty
    model, known verdict vocabulary, and a decide table present iff the
    verdict is ["solvable"]. *)

val validate_json : Wfc_obs.Json.t -> (unit, string) result
(** Structural check used by [wfc check-json] on store artifacts. *)

val is_hex_digest : string -> bool
