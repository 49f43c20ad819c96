(** Color-permutation automorphisms of chromatic complexes, and their lifts
    through the standard chromatic subdivision.

    Builds on {!Iso}: where [Iso] decides whether {e some} isomorphism
    exists between two complexes, this module {e enumerates} the
    automorphisms of one chromatic complex that realize a given color
    (process) permutation — the raw material for the task-level symmetry
    group [(I, O, Δ)] assembled by [Wfc_tasks.Task.automorphisms] and
    consumed by the solvability engine's orbit pruning.

    Vertex maps are total maps over the complex's vertices, represented as
    hash tables. Enumeration order is deterministic. *)

type vertex_map = (int, int) Hashtbl.t

val color_permutations : int list -> (int -> int) list
(** All bijections of a color set onto itself (including the identity), in
    a deterministic order. The argument is deduplicated and sorted first.
    Size is factorial in the number of colors — callers keep color sets at
    process-count scale. *)

val automorphisms :
  ?limit:int -> ?fuel:int -> Chromatic.t -> perm:(int -> int) -> vertex_map list
(** Every vertex bijection [σ] of the complex with
    [color (σ v) = perm (color v)] that maps the facet set onto itself
    (a chromatic simplicial automorphism over the given color
    permutation). Backtracking with signature pre-filtering as in {!Iso};
    at most [limit] maps are returned (default 64) and the search gives up
    after [fuel] branch nodes (default 200_000), so pathological complexes
    degrade to a {e subset} of the group — always sound for orbit pruning,
    which only needs each returned map to be a genuine automorphism.

    Representation: the search runs on dense vertex indices [0, V). The
    closure and the facet set are hash sets of bit sets over those
    indices, each one [int array] of ⌈V / [Sys.int_size]⌉ words, so any
    vertex count takes the same path. Each facet carries the bit set of
    its mapped vertices' images, set on assign and cleared on backtrack: a
    node is consistent when every facet at the assigned vertex has its
    image in the closure, and a complete map is accepted when every
    facet's image is a facet. Nothing is interned into the {!Simplex}
    arena.

    Contract: the visit order (vertices by ascending candidate count,
    candidates in vertex order), the points where [fuel] is spent (one
    unit per candidate tried) and the [limit] cut-off are fixed, so the
    same maps come back in the same order for the same arguments.

    The signatures, both sets and the per-vertex facet index depend only
    on the complex: they are built once the complex is applied, so
    [let enum = automorphisms c in List.map (fun perm -> enum ~perm) perms]
    builds them once for every permutation. *)

val lift : Sds.t -> vertex_map -> vertex_map option
(** Lift a base-complex automorphism level-by-level through an iterated
    standard chromatic subdivision: the vertex [(v, S)] maps to
    [(σ v, σ S)] with [σ] the lift one level down. Subdivision is
    functorial, so the lift of an automorphism always exists and is an
    automorphism of the top complex; [None] signals a map that is not an
    automorphism of the base (some image vertex does not exist). At level
    0 the lift is the map itself. *)
