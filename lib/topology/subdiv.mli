(** Subdivisions of chromatic complexes, with carriers and realization.

    A value of type {!t} packages a subdivision [B(A)] of a base complex [A]
    (§2): the subdivided complex, the carrier of each of its vertices (the
    smallest simplex of [A] whose convex hull contains it), and a geometric
    realization that expresses every subdivision vertex in barycentric
    coordinates over the base vertices. Both the standard chromatic
    subdivision ({!Sds}) and the barycentric subdivision ({!Subdivision})
    produce this representation, so carrier bookkeeping, face restriction,
    geometric validation and point location are shared here. *)

type t = {
  kind : string;  (** e.g. ["sds"], ["bsd"], ["id"] *)
  levels : int;  (** number of subdivision iterations over [base] *)
  base : Chromatic.t;
  cx : Chromatic.t;  (** the subdivided complex *)
  carrier : int -> Simplex.t;
      (** carrier of a subdivision vertex, as a simplex of [base] *)
  point : int -> Point.t;
      (** realization: barycentric coordinates over the base vertices, in the
          order given by [Complex.vertices (Chromatic.complex base)] *)
}

val make :
  kind:string ->
  levels:int ->
  base:Chromatic.t ->
  cx:Chromatic.t ->
  carrier:(int -> Simplex.t) ->
  point:(int -> Point.t) ->
  t
(** Packages a subdivision. The value holds no cache: every derived
    quantity, {!simplex_carrier} included, is recomputed on each call. *)

val identity : Chromatic.t -> t
(** The trivial subdivision [SDS^0(A) = A]. *)

val simplex_carrier : t -> Simplex.t -> Simplex.t
(** Carrier of a subdivision simplex: the union of its vertices' carriers
    (always a simplex of the base; checked with [assert] on every call). *)

val face : t -> Simplex.t -> Complex.t option
(** [face sd q]: the subcomplex of subdivision simplices whose carrier is a
    face of the base simplex [q] — the face [B(s^q)] of the paper. [None]
    when empty. *)

val boundary_vertices : t -> int list
(** Subdivision vertices whose carrier is a proper face of some base facet
    (for a subdivided simplex: the vertices on the boundary sphere). *)

val base_point : t -> int -> Point.t
(** Standard realization of a base vertex: the unit barycentric point. *)

val base_simplex_points : t -> Simplex.t -> Point.t list

val carrier_of_point : t -> Point.t -> Simplex.t option
(** The smallest base simplex whose convex hull contains the point, if the
    point lies in the realization of the base at all. *)

val locate_facet : t -> Point.t -> Simplex.t option
(** Some subdivision facet whose closed realization contains the point. *)

val is_carrier_preserving : t -> t -> Simplicial_map.t -> bool
(** [is_carrier_preserving a b phi]: both subdivisions must share the same
    base; checks [carrier v = carrier (phi v)] for all vertices of [a]. *)

val is_carrier_monotone : t -> t -> Simplicial_map.t -> bool
(** Weaker: [carrier (phi v) ⊆ carrier v]. This is what star-based
    simplicial approximation guarantees. *)

val check_geometric : t -> (unit, string) result
(** Validates that the recorded realization is a genuine subdivision:
    every vertex point is barycentric and supported on its carrier; facet
    point sets are affinely independent; and per base facet the chart
    volumes of the covering subdivision facets sum to the base facet's
    volume. *)

val mesh_sq : t -> Rat.t
(** The squared mesh of the realization: the maximum squared Euclidean
    length of an edge, with vertices read as points of [R^N] in barycentric
    coordinates. The quantitative content of "for all k large enough"
    (Lemma 2.1): iterating a subdivision drives the mesh to zero
    geometrically, which is what makes star-based simplicial approximation
    eventually succeed. *)

val sample_cover_count : t -> Random.State.t -> Simplex.t -> int
(** Picks a random rational point in the interior of the given base facet
    and counts the subdivision facets whose closed hull contains it (a
    subdivision yields 1 for almost every sample; >1 only on shared
    boundaries). *)
