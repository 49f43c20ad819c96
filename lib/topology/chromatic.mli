(** Chromatic complexes: complexes with a proper vertex coloring.

    A coloring (§2) is a dimension-preserving simplicial map onto a color
    simplex: equivalently, the vertices of every simplex carry pairwise
    distinct colors ("rainbow" simplices). In the distributed reading, the
    color of a vertex is the identifier of the process whose local state the
    vertex encodes.

    Colors are non-negative integers. The coloring is stored per-vertex and
    is validated at construction time. *)

type t

val make : ?check:bool -> Complex.t -> color:(int -> int) -> t
(** Attaches a coloring to a complex.
    @raise Invalid_argument if some simplex has two vertices of equal color
    (skipped when [check:false] is passed by a caller that constructed the
    coloring itself). *)

val of_assoc : Complex.t -> (int * int) list -> t
(** Coloring given as a [vertex, color] association list covering all
    vertices. *)

val complex : t -> Complex.t

val color : t -> int -> int
(** Color of a vertex. @raise Not_found for vertices outside the complex. *)

val colors : t -> int list
(** Sorted distinct colors in use. *)

val num_colors : t -> int

val simplex_colors : t -> Simplex.t -> Simplex.t
(** The set of colors of a simplex, as a simplex of the color space
    ([X(C)] in the paper). *)

val vertex_with_color : t -> Simplex.t -> int -> int option
(** The unique vertex of the given color inside a simplex, if any. *)

val restrict_colors : t -> int list -> t option
(** Subcomplex of simplices whose colors all lie in the given set; [None]
    if no simplex survives. *)

val sub : t -> Complex.t -> t
(** Inherits the coloring on a subcomplex (vertex ids must be shared).
    @raise Not_found if the subcomplex has a vertex the parent lacks. *)

val rename_colors : (int -> int) -> t -> t
(** Injective color renaming (checked on the colors in use). *)

val is_properly_colored : Complex.t -> color:(int -> int) -> bool

val standard_simplex : int -> t
(** [standard_simplex n]: the full [n]-simplex with [color v = v] — the
    canonical input complex where process [i] inputs its own identifier. *)

val equal : t -> t -> bool

val pp_stats : Format.formatter -> t -> unit
