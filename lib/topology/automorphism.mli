(** Color-permutation automorphisms of chromatic complexes, and their lifts
    through the standard chromatic subdivision.

    The module enumerates the automorphisms of one chromatic complex that
    realize a given color (process) permutation — the raw material for the
    task-level symmetry group [(I, O, Δ)] assembled by
    [Wfc_tasks.Task.automorphisms] and consumed by the solvability engine's
    orbit pruning. Its bijection search ({!search}) runs between any two
    complexes, and {!Iso} decides isomorphism with it.

    Vertex maps are total maps over the complex's vertices, represented as
    hash tables. Enumeration order is deterministic. *)

type vertex_map = (int, int) Hashtbl.t

val color_permutations : int list -> (int -> int) list
(** All bijections of a color set onto itself (including the identity), in
    a deterministic order. The argument is deduplicated and sorted first.
    Size is factorial in the number of colors — callers keep color sets at
    process-count scale. *)

type table
(** The search tables of one complex: its vertices as dense indices
    [0, V) in ascending order, its closure and its facet set as hash sets
    of bit sets over those indices (each one [int array] of
    ⌈V / [Sys.int_size]⌉ words, so any vertex count takes the same path),
    the facets at each vertex, and each vertex's signature (the sorted
    dimensions of the facets at it, and the number of closure simplices
    containing it). Nothing is interned into the {!Simplex} arena. *)

val table : Complex.t -> table

val search :
  limit:int -> fuel:int -> compatible:(int -> int -> bool) -> table -> table -> vertex_map list
(** [search ~compatible src dst]: the injective vertex maps [σ] from
    [src]'s complex into [dst]'s with [compatible v (σ v)] and the same
    signature at [v] and [σ v], that carry every facet of [src] onto a
    facet of [dst]. When both complexes have as many vertices and as many
    facets, these are exactly the isomorphisms. [compatible v] is applied
    once per source vertex, and the function it returns to each target of
    the same signature, so a caller can do its per-source work in the
    first application.

    Each facet carries the bit set of its mapped vertices' images, set on
    assign and cleared on backtrack: a node is consistent when every facet
    at the assigned vertex has its image in [dst]'s closure, and a
    complete map is accepted when every facet's image is a facet.

    Contract: the visit order (source vertices by ascending candidate
    count, candidates in vertex order), the points where [fuel] is spent
    (one unit per candidate tried) and the [limit] cut-off are fixed, so
    the same maps come back in the same order for the same arguments: at
    most [limit] maps, and no candidate is tried once [fuel] units are
    spent. *)

val automorphisms :
  ?limit:int -> ?fuel:int -> Chromatic.t -> perm:(int -> int) -> vertex_map list
(** Every vertex bijection [σ] of the complex with
    [color (σ v) = perm (color v)] that maps the facet set onto itself
    (a chromatic simplicial automorphism over the given color
    permutation): {!search} from the complex to itself. At most [limit]
    maps are returned (default 64) and the search gives up after [fuel]
    branch nodes (default 200_000), so pathological complexes degrade to a
    {e subset} of the group — always sound for orbit pruning, which only
    needs each returned map to be a genuine automorphism.

    The {!table} depends only on the complex: it is built once the complex
    is applied, so
    [let enum = automorphisms c in List.map (fun perm -> enum ~perm) perms]
    builds it once for every permutation. *)

val lift_step : Sds.t -> vertex_map -> vertex_map option
(** One level of {!lift}. At level 0, [lift_step sds σ] restricts [σ] to
    the complex's vertices ([None] if some image is not one of them).
    Above, it takes the lift [σ'] at the level below and maps [(v, S)] to
    [(σ' v, σ' S)] ([None] if some image is not a vertex of this level).

    Partial application does the per-level work: [let step = lift_step sds]
    builds the level's [(own, snap)] reverse index once, and every [step σ]
    reuses it. *)

val lift : Sds.t -> vertex_map -> vertex_map option
(** Lift a base-complex automorphism level-by-level through an iterated
    standard chromatic subdivision: the vertex [(v, S)] maps to
    [(σ v, σ S)] with [σ] the lift one level down. Subdivision is
    functorial, so the lift of an automorphism always exists and is an
    automorphism of the top complex; [None] signals a map that is not an
    automorphism of the base (some image vertex does not exist). At level
    0 the lift is the map itself. [lift] is the fold of {!lift_step} from
    level 0 up; a caller lifting many maps, or keeping the lifts of every
    level, applies [lift_step] itself. *)
