(** The sharded, cache-tiered store (v3 layout).

    One engine instance serves two keyspaces under one root:

    - {b verdicts} — [ab/cd/<digest>.<model-slug>.L<n>.json], the record
      of one decided [(task, model, max_level, budget)] question, as
      canonical JSON ({!Record.record_to_json});
    - {b skeletons} — [skeletons/ab/cd/<digest>.L<b>.json], a persisted
      [SDS^b] subdivision keyed by the structural digest of its base.

    The directory tree is the store's only index. Every durable file is
    one atomic write; [ls]/[verify]/[gc] walk the tree. The {e serving}
    path never walks: {!find} goes LRU → one [open] of the question's
    sharded path, so writers in other processes are visible immediately.
    Flat pre-sharding records (v1/v2 in the store root) and [wfc.store.v1]
    bodies are not read by any of this module's operations; {!verify}
    reports such files as mismatched or corrupt. A file that does not end
    in [.json] (such as the index file older builds kept at the root) is
    ignored by every scan.

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
(** Empties the decoded-record cache ({!cache_clear}); the engine holds
    no file descriptor between calls. The store stays usable. *)

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
    (which stays), or a corrupt/misfiled record (renamed into quarantine
    on the way out). Hits fill and consult the LRU; a cache hit
    makes no syscall, and a cache miss makes one [open] of {!path_of} — a
    file that is not there is a miss. *)

val put : t -> Record.record -> unit
(** Atomic durable publish under the sharded path (temp, fsync, rename),
    then cache fill. *)

(** {1 Answering a question} *)

type answer =
  | Stored of Record.record  (** filed earlier; nothing was solved *)
  | Computed of {
      record : Record.record;
      verdict : Wfc_core.Solvability.verdict;
      solve_s : float;  (** {!Wfc_core.Solvability.solve} alone *)
      put_s : float;  (** {!put}; [0.] when nothing was filed *)
    }

type error =
  | Unverified of string
      (** a [Solvable] verdict whose map fails
          {!Wfc_core.Solvability.verify}; the payload is its reason *)

val error_to_string : error -> string

val file :
  t option ->
  opts:Wfc_core.Solvability.options ->
  spec:string ->
  max_level:int ->
  Wfc_tasks.Task.t ->
  Wfc_core.Solvability.verdict ->
  (Record.record * float, error) result
(** The filing step of {!answer}: flatten a fresh verdict into its record
    ({!Record.make}, [spec] as its informational task string) and {!put}
    it unless the verdict is [Exhausted] — a budget overrun is a fact about
    the budget, not the task. A [Solvable] map is first checked by
    {!Wfc_core.Solvability.verify} inside a [solvability.verify] span; a map
    that fails is [Error (Unverified _)] and nothing is filed. Returns the
    record and the seconds {!put} took ([0.] when nothing was filed). With
    no store it only builds the record. *)

val answer :
  t option ->
  opts:Wfc_core.Solvability.options ->
  spec:string ->
  max_level:int ->
  Wfc_tasks.Task.t ->
  (answer, error) result
(** The one path from a question to its verdict record: {!find} under
    [(Task.digest task, opts.model, max_level, opts.budget)]; on a miss,
    {!Wfc_core.Solvability.solve} with [opts], then {!file}. With no store
    it only solves, checks and builds the record. Counts
    [solvability.store.hits] / [.misses] when a store is given. *)

(** {1 Skeleton keyspace} *)

val find_skeleton : t -> digest:string -> level:int -> string option
(** Raw bytes of the persisted [SDS^level] artifact for a base complex
    with this structural digest, if present. Integrity is the caller's
    check (the artifact embeds its own digest). *)

val put_skeleton : t -> digest:string -> level:int -> string -> unit
(** Atomic durable publish of the artifact at its skeleton path. *)

val attach_skeletons : t -> unit
(** Installs this store's skeleton keyspace as the process-wide
    {!Wfc_topology.Sds.skeleton_store}: cold solves against already-seen
    subdivisions replay persisted [SDS] steps instead of re-enumerating
    ([sds.skeleton.hits] / [sds.skeleton.misses]). *)

(** {1 Scans} *)

type listing = {
  records : (string * Record.record) list;
      (** store-relative path and decoded body of every verdict file that
          decodes, sorted by path *)
  skeletons : int;  (** files in the skeleton keyspace *)
}

val ls : t -> listing
(** One walk of the tree, decoding each verdict file. Files that fail to
    decode are left out ({!verify} names them); temps and quarantined
    files are skipped. *)

type verify_report = {
  valid : int;
  corrupt : (string * string) list;  (** record files failing decode *)
  mismatched : string list;  (** body disagrees with filed path *)
  quarantined : int;  (** files already in quarantine/ *)
  stray_tmp : int;  (** interrupted atomic writes ([*.wtmp]) *)
}

val verify : t -> verify_report
(** One walk of the tree: every record decoded and checked against the
    path it is filed under. Read-only. *)

val gc : t -> removed:int ref -> unit
(** Reaps quarantined files and stray [.wtmp] temps, counting into
    [removed]. Records and skeletons are untouched. *)

val seed : t -> count:int -> unit
(** Populates deterministic synthetic records (bench / CI scale runs). *)

val cache_clear : t -> unit

val cache_keys : t -> string list
(** Cached question keys, warmest first. *)
