(** The append-only store index ([MANIFEST.jsonl], schema
    [wfc.manifest.v1]): one canonical single-line JSON entry per mutation,
    fsync'd on append, compacted on [gc], rebuildable from a directory
    walk. [ls]/[verify]/[gc] answer from one sequential read of this file
    instead of a [readdir] of the world. The manifest is derived state:
    records are durable before their manifest line exists, so a torn
    trailing line (crash mid-append) is tolerated and reported, and a lost
    manifest costs a rebuild, never data. *)

val schema_version : string
(** ["wfc.manifest.v1"]. *)

type op = Put | Del

type kind = Verdict | Skeleton

type entry = {
  op : op;
  kind : kind;
  rel : string;  (** store-relative path of the artifact *)
  digest : string;
  model : string;  (** [""] for skeletons *)
  max_level : int;  (** subdivision level for skeletons *)
  budget : int;  (** [0] for skeletons *)
  verdict : string;  (** [""] for skeletons and deletions *)
  level : int;  (** decided level; [0] when not applicable *)
  codec : string;  (** ["json"] on every put — records have one format *)
  created_at : float;
}

val entry_to_json : entry -> Wfc_obs.Json.t

val entry_of_json : Wfc_obs.Json.t -> (entry, string) result

type t
(** An append handle: lazily-opened [O_APPEND] fd, serialized by a mutex. *)

val create : string -> t

val append : t -> entry -> unit
(** Append one entry as a [Json.to_line] line and fsync. *)

val close : t -> unit

type load_report = { entries : entry list; bad_lines : int }

val load : string -> load_report
(** Sequential read of the whole log in order; unparseable lines (torn
    trailing append) are counted, not fatal. Missing file = empty log. *)

val live : entry list -> entry list
(** Replay the log: the latest [Put] per path not followed by a [Del],
    sorted by path. *)

val write_full : string -> entry list -> unit
(** Atomically replace the log with exactly [entries] (compaction /
    rebuild). *)
