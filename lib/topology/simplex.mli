(** Simplices as interned, array-backed vertex sets.

    Following the paper (§2), an [n]-dimensional simplex is a set of [n + 1]
    vertices. Vertices are dense integer identifiers managed by the enclosing
    {!Complex}. The canonical representation is a strictly increasing vertex
    array, hash-consed in a global arena: every vertex set has a unique live
    representative carrying a stable {!id}, so {!equal}, {!Tbl} hashing,
    {!card} and {!dim} are all O(1). Set operations ([union], [inter], …)
    work by sorted-array merge and return an existing representative whenever
    the result coincides with an operand.

    The arena is one table under one lock: {!of_list} and the set
    operations probe it, and only a vertex set's first intern files a new
    representative, with the next dense id. The lock makes interning safe
    for the sys-threads of one domain (the daemon's I/O thread builds tasks
    while its solver thread subdivides); the process runs on one domain.
    Ids are dense, contiguous and stable; the arena is never emptied. *)

type t

val of_list : int list -> t
(** Sorts and de-duplicates. [of_list [] ] is the empty simplex, which only
    appears transiently (complexes store non-empty simplices). *)

val of_sorted : int list -> t
(** Trusts the input to be strictly increasing (checked with [assert]). *)

val to_list : t -> int list

val vertices : t -> int list
(** Alias of {!to_list}. *)

val singleton : int -> t

val empty : t

val is_empty : t -> bool

val dim : t -> int
(** [card - 1]; the empty simplex has dimension [-1]. O(1). *)

val card : t -> int
(** O(1). *)

val id : t -> int
(** The interned identifier: [equal s t] iff [id s = id t]. Stable for the
    life of the process; dense from 0, so it can index arrays sized by
    {!arena_size}. Which id a given vertex set receives may depend on thread
    interleaving — ids are identity tokens, never an ordering ({!compare} is
    lexicographic on the vertices). *)

val mem : int -> t -> bool
(** Binary search, O(log card). *)

val min_vertex : t -> int
(** Smallest vertex, O(1). @raise Invalid_argument on the empty simplex. *)

val max_vertex : t -> int
(** Largest vertex, O(1). @raise Invalid_argument on the empty simplex. *)

val nth : t -> int -> int
(** [nth s i] is the [i]-th smallest vertex (unchecked array access). *)

val subset : t -> t -> bool
(** [subset s t] iff [s] is a face of [t] (improper faces included). *)

val equal : t -> t -> bool
(** O(1): interned-id comparison. *)

val hash : t -> int
(** O(1): the interned id. *)

val compare : t -> t -> int
(** Lexicographic on the sorted vertex sequences — the same total order as
    the historical sorted-list representation, so sorted outputs are
    reproducible across the interning refactor. *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val remove : int -> t -> t

val add : int -> t -> t

val iter : (int -> unit) -> t -> unit
(** Vertex iteration in increasing order, no allocation. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Left fold over vertices in increasing order, no allocation. *)

val for_all : (int -> bool) -> t -> bool

val exists : (int -> bool) -> t -> bool

val faces : t -> t list
(** All non-empty faces, including [t] itself. [2^card - 1] of them. Cached
    per interned simplex (for [card <= 16]), so repeated closure
    computations share one enumeration: a second call returns the same
    list. *)

val proper_faces : t -> t list
(** All non-empty faces excluding [t] itself. *)

val facets : t -> t list
(** Codimension-1 faces: [t] minus each single vertex. *)

val subsets_of_card : int -> t -> t list

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val arena_size : unit -> int
(** Number of distinct simplices currently interned. *)

val faces_memo_size : unit -> int
(** Number of simplices whose {!faces} list is cached. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
