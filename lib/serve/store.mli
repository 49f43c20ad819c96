(** Content-addressed persistent verdict store — the serving layer's view
    of {!Wfc_storage.Engine}.

    A verdict is a pure function of [(task, model, max_level, budget)]: the
    search is deterministic, so once computed it can be reused by every
    later process. Records file under two-level digest-prefix shards

    {v <dir>/ab/cd/<task digest>.<model slug>.L<max_level>.json v}

    where the digest is {!Wfc_tasks.Task.digest} — content addressing, so
    two differently-named constructions of the same [(I, O, Δ)] share a
    record — and every record is canonical JSON. The budget rides inside
    the record and is checked on read: a record computed under a different
    budget is a miss, never a wrong answer.

    {b Flat and v1 stores are not read.} Records written before sharding
    ([wfc.store.v2] files in the root) and pre-model [wfc.store.v1]
    records are never served: {!find} reads the sharded path only, and
    {!record_of_json} accepts [wfc.store.v2] only.

    Durability and hygiene are the engine's: atomic fsync'd writes through
    unique [.wtmp] temps, quarantine-on-read for corrupt or misfiled
    records (counted in [serve.store.quarantined]), an fsync'd
    [MANIFEST.jsonl] feeding [ls]/[verify]/[gc], and a bounded in-process
    LRU of decoded records ([storage.cache.{hit,miss,evict}]) so repeat
    warm lookups make no syscall. See {!Wfc_storage.Engine} for the full
    contract. *)

val schema_version : string
(** ["wfc.store.v2"]. *)

type record = Wfc_storage.Record.record = {
  digest : string;  (** {!Wfc_tasks.Task.digest} of the task *)
  task : string;  (** informational: the instance spec, e.g. ["consensus(procs=2,param=2)"] *)
  model : string;  (** canonical {!Wfc_tasks.Model} name, e.g. ["k-set:2"] *)
  procs : int;
  max_level : int;
  budget : int;
  outcome : Wfc_core.Solvability.outcome;
  created_at : float;  (** unix seconds at commit; not part of the verdict *)
}

val record :
  task:Wfc_tasks.Task.t ->
  spec:string ->
  ?model:string ->
  max_level:int ->
  budget:int ->
  Wfc_core.Solvability.outcome ->
  record
(** Builds a record for [outcome], computing the digest and stamping
    [created_at] with the current time. [model] defaults to
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
(** Accepts [wfc.store.v2] only; any other schema tag is an [Error]
    naming it. *)

val validate_json : Wfc_obs.Json.t -> (unit, string) result
(** Structural check used by [wfc check-json] on store artifacts. *)

type t = Wfc_storage.Engine.t

val open_store :
  ?cache_cap:int -> string -> t
(** Opens (creating directories as needed) the store rooted at the path.
    [cache_cap] bounds the decoded-record LRU. *)

val attach_skeletons : t -> unit
(** Installs this store's skeleton keyspace as the process-wide
    {!Wfc_topology.Sds.skeleton_store}: cold solves against already-seen
    subdivisions replay persisted [SDS] steps instead of re-enumerating
    ([sds.skeleton.hits] / [sds.skeleton.misses]). *)

val dir : t -> string

val path_of : t -> digest:string -> model:string -> max_level:int -> string
(** The sharded record file a question maps to. *)

val find :
  t -> digest:string -> model:string -> max_level:int -> budget:int -> record option
(** The stored verdict for a question, or [None] on: no record, a record
    computed under a different budget, or a corrupt record (which is
    quarantined on the way out). Served from the LRU when warm, else from
    one [open] of the sharded path. A record whose body disagrees with the
    requested digest {e or model} is quarantined, never served. Never
    raises on store corruption. *)

val put : t -> record -> unit
(** Atomically files the record under its sharded path (unique temp +
    fsync + rename) and appends to the manifest. *)

val entries : t -> (string * (record, string) result) list
(** Live manifest verdict entries (store-relative path, parse result),
    sorted — read-only: unlike {!find} this never quarantines, so
    [wfc store ls] and {!verify} can report corruption without mutating
    the store. *)

type verify_report = Wfc_storage.Engine.verify_report = {
  valid : int;
  corrupt : (string * string) list;  (** record files failing validation *)
  mismatched : string list;
      (** records not filed at the sharded path of their own body's
          question — flat pre-sharding names included *)
  quarantined : int;  (** files already sitting in quarantine/ *)
  stray_tmp : int;  (** interrupted writes ([*.wtmp]) *)
  unindexed : int;  (** files with no live manifest line *)
  missing : int;  (** live manifest lines whose file is gone *)
  bad_manifest_lines : int;  (** unparseable (torn) manifest lines *)
}

val verify : t -> verify_report

val gc : t -> removed:int ref -> unit
(** Deletes quarantined records and stray temp files (counting deletions
    into [removed]) and compacts the manifest. Valid records are never
    touched. *)
