(** On-disk layout of the sharded (v3) store: two-level digest-prefix
    shards ([ab/cd/<digest>...]) created lazily, a [skeletons/] keyspace
    beside the verdict shards, a [quarantine/] pen, and the atomic-write
    discipline (unique [.wtmp] temp + fsync + rename) every durable file
    goes through. The tree is the store's only index. *)

val shard_of_digest : string -> string * string
(** First and second hex-pair of the digest — the two directory levels. *)

val verdict_rel : digest:string -> model:string -> max_level:int -> string
(** Store-relative sharded path of a verdict record, e.g.
    [ab/cd/abcd....k-set-2.L3.json] — the only path the serving path reads
    or writes. *)

val skeleton_root : string

val skeleton_rel : digest:string -> level:int -> string
(** Store-relative path of a persisted [SDS^level] skeleton keyed by the
    structural digest of the base complex. *)

val quarantine_root : string

val tmp_ext : string
(** [".wtmp"] — the extension of in-flight atomic-write temps. Scans skip
    (but report) these; [gc] reaps them. *)

val tmp_path_for : string -> string
(** A fresh unique temp path in the same directory as the target (pid +
    counter), so concurrent writers never collide. *)

val is_tmp : string -> bool

val mkdir_p : string -> unit

val atomic_write : string -> string -> unit
(** [atomic_write path data]: durable atomic publish — temp in the target
    directory, full write, fsync, rename. Creates parent directories (lazy
    shard creation). *)

val read_file : string -> string

val walk : string -> f:(string -> unit) -> unit
(** Depth-first walk yielding store-relative file paths in sorted order.
    Only ls/verify/gc walk; the serving path never does. *)
