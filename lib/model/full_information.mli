(** Full-information protocols in both models.

    In the full-information protocol a process repeatedly publishes
    {e everything it knows} and reads everything published (§3.1). Its local
    state after [k] rounds is a nested view — the finest information any
    protocol can gather, which is why protocol complexes are built from
    these views.

    Two variants:
    - {!atomic_k_shot} — Figure 1: alternate [Write own cell] /
      [atomic Snapshot] for [k] rounds on SWMR snapshot memory;
    - {!iis_k_shot} — the IIS full-information protocol of §3.5: WriteRead
      on [M_0, ..., M_{k-1}]. *)

(** Views of the atomic snapshot model: the initial input, or the last
    snapshot taken (an array over all cells, [None] = cell unwritten). *)
type 'v view =
  | Vinit of { proc : int; input : 'v }
  | Vsnap of { proc : int; round : int; cells : 'v view option array }

(** Views of the IIS model: the initial input, or the output of the last
    one-shot memory (the views of all processes seen there). *)
type 'v iview =
  | Iinit of { proc : int; input : 'v }
  | Inode of { proc : int; seen : 'v iview list }

val atomic_k_shot : procs:int -> k:int -> inputs:'v array -> 'v view Action.t array
(** Figure 1 for each of [procs] processes. After [k]
    write/snapshot rounds each process decides on its final view. *)

val iis_k_shot : procs:int -> k:int -> inputs:'v array -> 'v iview Action.t array
(** IIS full-information protocol: [k] one-shot memories. *)

val iis_participants :
  procs:int -> k:int -> inputs:'v array -> participating:int list -> 'v iview Action.t array
(** Same, but processes outside [participating] decide immediately on their
    initial view — used to enumerate protocol complexes over all
    participating sets. *)

val canonical_iview : ('v -> string) -> 'v iview -> string
(** Canonical encoding of an IIS view. Matches
    {!Wfc_topology.Sds.canonical_view} when inputs are encoded as ["#i"] for
    process [i] — the bridge used to check Lemmas 3.2/3.3. *)

val canonical_view : ('v -> string) -> 'v view -> string
(** Canonical encoding of an atomic-snapshot view. *)

val iview_procs_seen : 'v iview -> int list
(** Processes whose views appear in the last round seen (the immediate
    snapshot output set, as process ids); the initial view sees only its
    own process. *)

val proc_of_iview : 'v iview -> int
