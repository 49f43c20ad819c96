(** Isomorphism of simplicial complexes.

    Two complexes are isomorphic when a vertex bijection carries the facets
    of one exactly onto the facets of the other. Lemmas 3.2 and 3.3 are
    statements of this kind: the protocol complex of the immediate
    snapshot model is isomorphic to the standard chromatic subdivision.
    (The experiments check those lemmas by view-level equality,
    [Wfc_model.Protocol_complex.matches_sds], which needs no search.)

    After cheap pre-checks (dimension, vertex and facet counts,
    f-vector), the search is {!Automorphism.search} from one complex to the
    other, stopped at the first map: backtracking over vertices pruned by
    their signatures (facet dimension profile, closure membership count)
    and, when given, their colors.

    Known limit: the visit order ignores adjacency, so consistency prunes
    only once a facet's vertices are mapped together. Against a randomly
    relabelled copy of a long path such as SDS{^3}(s{^1}) (27 edges, all
    inner vertices alike) the search does not finish in 100 s. An
    adjacency-aware order would change the order in which
    {!Automorphism.automorphisms} returns its maps. *)

val isomorphism :
  ?color_src:(int -> int) ->
  ?color_dst:(int -> int) ->
  Complex.t ->
  Complex.t ->
  Simplicial_map.t option
(** A witness isomorphism, color-preserving when colorings are supplied for
    both sides. [None] when the complexes are not isomorphic. *)

val isomorphic :
  ?color_src:(int -> int) -> ?color_dst:(int -> int) -> Complex.t -> Complex.t -> bool

val chromatic_isomorphic : Chromatic.t -> Chromatic.t -> bool
(** Color-preserving isomorphism of chromatic complexes. *)
