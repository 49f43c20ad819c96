(** The sharded, manifest-indexed, cache-tiered store (v3 layout).

    One engine instance serves two keyspaces under one root:

    - {b verdicts} — [ab/cd/<digest>.<model-slug>.L<n>.json], the record
      of one decided [(task, model, max_level, budget)] question, as
      canonical JSON ({!Record.record_to_json});
    - {b skeletons} — [skeletons/ab/cd/<digest>.L<b>.json], a persisted
      [SDS^b] subdivision keyed by the structural digest of its base.

    Every mutation appends a fsync'd line to [MANIFEST.jsonl]
    ({!Manifest}); [ls]/[verify]/[gc] answer from that one sequential file.
    The {e serving} path never consults the manifest: {!find} goes LRU →
    one [open] of the question's sharded path, so concurrent writers in
    other processes are visible immediately and manifest staleness can
    only mis-report, never mis-answer. Flat pre-sharding records (v1/v2 in
    the store root) and [wfc.store.v1] bodies are not read by any of this
    module's operations; {!verify} reports such files as mismatched or
    corrupt.

    Counters: [serve.store.{reads,puts,quarantined}] (disk tier, the
    pre-engine names) and [storage.cache.{hit,miss,evict}] (memory
    tier). *)

type t

val default_cache_cap : int

val open_store : ?cache_cap:int -> string -> t
(** Opens (creating root and quarantine dirs) the store at the path.
    [cache_cap] bounds the decoded-record LRU (default
    {!default_cache_cap}). *)

val dir : t -> string

val close : t -> unit
(** Releases the manifest append handle. The store stays usable — the
    handle reopens lazily. *)

val path_of : t -> digest:string -> model:string -> max_level:int -> string
(** The sharded path {!put} writes and {!find} reads for this question. *)

val find :
  t ->
  digest:string ->
  model:string ->
  max_level:int ->
  budget:int ->
  Record.record option
(** The stored verdict, or [None] on: no record, a different-budget record
    (which stays), or a corrupt/misfiled record (quarantined on the way
    out, with a manifest [Del]). Hits fill and consult the LRU; a cache hit
    makes no syscall, and a cache miss makes one [open] of {!path_of} — a
    file that is not there is a miss. *)

val put : t -> Record.record -> unit
(** Atomic durable publish under the sharded path, then manifest append
    and cache fill. *)

(** {1 Answering a question} *)

type answer =
  | Stored of Record.record  (** filed earlier; nothing was solved *)
  | Computed of {
      record : Record.record;
      verdict : Wfc_core.Solvability.verdict;
      solve_s : float;  (** {!Wfc_core.Solvability.solve} alone *)
      put_s : float;  (** {!put}; [0.] when nothing was filed *)
    }

val answer :
  t option ->
  opts:Wfc_core.Solvability.options ->
  spec:string ->
  max_level:int ->
  Wfc_tasks.Task.t ->
  answer
(** The one path from a question to its verdict record: {!find} under
    [(Task.digest task, opts.model, max_level, opts.budget)]; on a miss,
    {!Wfc_core.Solvability.solve} with [opts], build the record
    ({!Record.make}, [spec] as its informational task string), and {!put}
    it unless the verdict is [Exhausted] — a budget overrun is a fact
    about the budget, not the task. With no store it only solves. Counts
    [solvability.store.hits] / [.misses] when a store is given. *)

(** {1 Skeleton keyspace} *)

val find_skeleton : t -> digest:string -> level:int -> string option
(** Raw bytes of the persisted [SDS^level] artifact for a base complex
    with this structural digest, if present. Integrity is the caller's
    check (the artifact embeds its own digest). *)

val put_skeleton :
  t -> digest:string -> level:int -> created_at:float -> string -> unit

val attach_skeletons : t -> unit
(** Installs this store's skeleton keyspace as the process-wide
    {!Wfc_topology.Sds.skeleton_store}: cold solves against already-seen
    subdivisions replay persisted [SDS] steps instead of re-enumerating
    ([sds.skeleton.hits] / [sds.skeleton.misses]). *)

(** {1 Scans} *)

val ls : t -> Manifest.entry list
(** The live manifest view (both keyspaces), sorted by path — one
    sequential read, no [readdir], no record opens. *)

type verify_report = {
  valid : int;
  corrupt : (string * string) list;  (** record files failing decode *)
  mismatched : string list;  (** body disagrees with filed path *)
  quarantined : int;  (** files already in quarantine/ *)
  stray_tmp : int;  (** interrupted atomic writes ([*.wtmp]) *)
  unindexed : int;  (** files on disk with no live manifest line *)
  missing : int;  (** live manifest lines whose file is gone *)
  bad_manifest_lines : int;  (** unparseable (torn) manifest lines *)
}

val verify : t -> verify_report
(** Full reconciliation: one manifest read + one tree walk, cross-checked
    both ways. Read-only. *)

val rebuild_manifest : t -> int
(** Regenerates [MANIFEST.jsonl] from nothing but a tree walk, atomically
    replacing the log; returns the live-entry count. The recovery proof
    that the manifest is derived state. *)

val gc : t -> removed:int ref -> unit
(** Reaps quarantined files and stray [.wtmp] temps (counting into
    [removed]), then compacts the manifest to exactly the live,
    still-on-disk set. *)

val seed : t -> count:int -> unit
(** Populates deterministic synthetic records (bench / CI scale runs). *)

val cache_clear : t -> unit

val cache_keys : t -> string list
(** Cached question keys, warmest first. *)
