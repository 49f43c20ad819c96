(** The standard chromatic subdivision [SDS], plain and iterated.

    [SDS(A)] replaces every simplex of a chromatic complex [A] by its
    standard chromatic subdivision (Lemma 3.2 / 3.3): the vertices of the
    subdivision of a simplex [F] are the pairs [(v, S)] with [v ∈ S ⊆ F],
    and its facets are in bijection with the ordered partitions
    [(B1, ..., Bm)] of [F]'s vertex set — the facet contains, for each
    [v ∈ Bj], the vertex [(v, B1 ∪ ... ∪ Bj)]. Combinatorially this is
    exactly the complex of views of the one-shot immediate snapshot
    protocol, which is how the paper derives it.

    Iterating gives [SDS^b(A)], the protocol complex of the [b]-shot
    iterated immediate snapshot model. Each level records, per vertex, the
    process ("own") vertex and the snapshot ("snap") simplex at the previous
    level, so a vertex of [SDS^b] {e is} a full-information local state.

    The geometric realization uses Kozlov's exact coordinates: the vertex
    [(v, S)] with [q = |S|] is placed at
    [(1 · point v + 2 · sum_{u ∈ S, u ≠ v} point u) / (2q - 1)],
    which realizes [SDS] as a genuine subdivision (validated by
    {!Subdiv.check_geometric} in the test suite). *)

type t

val of_chromatic : Chromatic.t -> t
(** Level-0 wrapper: the complex itself, not yet subdivided. *)

val subdivide : t -> t
(** One more level of standard chromatic subdivision. *)

val iterate : Chromatic.t -> int -> t
(** [iterate a b] is [SDS^b(a)]. Results are memoized per
    [(complex name, structural digest, level)] — the digest covers the
    facets and coloring, so distinct complexes sharing a name keep distinct
    cache slots — and repeated calls at increasing levels reuse the lower
    levels instead of re-subdividing from scratch. *)

val clear_cache : unit -> unit
(** Drops the {!iterate} memo table (used by benchmarks to time cold
    builds). The persisted-skeleton store, if any, is unaffected. *)

val memo_size : unit -> int
(** Entries in the {!iterate} memo table: one per memoized level. *)

type skeleton_store = {
  load : digest:string -> level:int -> string option;
  save : digest:string -> level:int -> string -> unit;
}
(** Injected persistence for subdivision skeletons ([wfc.skeleton.v1]): a
    skeleton is the enumeration output of one subdivision step — vertex
    pairs and facet id-lists — keyed by the {!structural_digest} of the
    {e base} complex and the target level, and replaying it through the
    deterministic build tail reproduces {!subdivide} bit-for-bit. [load]
    returns raw artifact bytes (integrity is checked here: schema, key and
    an embedded content digest; any mismatch falls back to a fresh
    subdivision, which is re-saved). *)

val set_skeleton_store : skeleton_store option -> unit
(** Installs (or clears) the process-wide skeleton store used by
    {!iterate}. Metrics: [sds.skeleton.hits] (steps replayed from the
    store) and [sds.skeleton.misses] (steps enumerated and saved). *)

val structural_digest : Chromatic.t -> string
(** Content digest of a chromatic complex: its facets with their colors,
    arena-independent. The memo and skeleton-store key. *)

val standard : dim:int -> levels:int -> t
(** [SDS^b(sⁿ)] over the standard chromatic [n]-simplex. *)

val subdiv : t -> Subdiv.t
(** The generic subdivision view (carriers, realization). *)

val complex : t -> Chromatic.t

val base : t -> Chromatic.t

val levels : t -> int

val prev : t -> t option
(** The subdivision one level down; [None] at level 0. *)

val own : t -> int -> int
(** For a vertex [(v, S)] of the top level: the previous-level vertex [v].
    @raise Invalid_argument at level 0. *)

val snap : t -> int -> Simplex.t
(** For a vertex [(v, S)]: the previous-level simplex [S] ("what the process
    saw"). @raise Invalid_argument at level 0. *)

val carrier : t -> int -> Simplex.t
(** Carrier in the base complex. *)

val color : t -> int -> int

val facet_partition : t -> Simplex.t -> Ordered_partition.t
(** Recovers the ordered partition (of previous-level vertices) that
    generated a facet of the top level. @raise Invalid_argument at level 0
    or if the simplex is not a facet. *)

val canonical_view : t -> int -> string
(** Canonical encoding of the full-information local state represented by a
    vertex; equal strings iff equal views. Used to match the combinatorial
    complex against protocol complexes generated by executing the model. *)

val count_facets : dim:int -> levels:int -> int
(** Closed-form facet count of [SDS^b(sⁿ)]: [fubini(n+1)^b]. *)

val vertex_of_view : t -> color:int -> snap:Simplex.t -> int option
(** Finds the top-level vertex with the given color and previous-level
    snapshot. [None] if absent (or at level 0). *)
