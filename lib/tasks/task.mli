(** Distributed tasks as input/output chromatic complexes (§3.2).

    A task over [n + 1] processes is a triple [(Iⁿ, Oⁿ, Δ)]: the input
    complex [Iⁿ] has a vertex per (process, possible input value) pair and a
    simplex per input tuple; the output complex [Oⁿ] likewise for outputs;
    and [Δ] maps every input simplex to the output simplices its
    participants are allowed to produce, color (= process) sets matching.

    Values are strings so that every concrete task fits one representation;
    {!of_relation} builds the complexes by enumerating tuples against a
    legality predicate. *)

type t = private {
  name : string;
  procs : int;  (** n + 1 *)
  input : Wfc_topology.Chromatic.t;
  output : Wfc_topology.Chromatic.t;
  input_label : int -> string;  (** value carried by an input vertex *)
  output_label : int -> string;
  delta : Wfc_topology.Simplex.t -> Wfc_topology.Simplex.t list;
      (** maximal allowed output simplices for an input simplex *)
  digest : string;
      (** {!canonical_json}'s content digest, rendered once by
          {!of_relation}; a plain field, so every thread reads it freely *)
}
(** Private: {!of_relation} is the one constructor, so [digest] always
    matches the rest of the record. *)

val of_relation :
  name:string ->
  procs:int ->
  inputs:(int -> string list) ->
  outputs:(int -> string list) ->
  legal:(participants:int list -> input:(int -> string) -> output:(int -> string) -> bool) ->
  t
(** Builds a task by enumeration. For every non-empty participant set [P],
    every assignment of inputs to [P], and every assignment of outputs to
    [P], the tuple is included iff [legal] accepts it. Input simplices are
    all input assignments (inputs are independent); [Δ] of an input simplex
    collects the output tuples legal for exactly its participants and
    inputs.
    @raise Invalid_argument if some (participants, input) pair admits no
    legal output — a task must specify at least one outcome for every input
    tuple. *)

val input_vertex : t -> proc:int -> value:string -> int option

val output_vertex : t -> proc:int -> value:string -> int option

val proc_of_input : t -> int -> int
(** Color (process id) of an input vertex. *)

val proc_of_output : t -> int -> int

val well_formed : t -> (unit, string) result
(** Checks the structural invariants: proper colorings, [Δ] non-empty on
    every input simplex, color sets preserved by [Δ], and [Δ] members are
    simplices of the output complex. *)

val allows : t -> Wfc_topology.Simplex.t -> Wfc_topology.Simplex.t -> bool
(** [allows t si so]: the output simplex [so] is a face of some simplex in
    [Δ si] — the per-simplex condition of Proposition 3.1. *)

val product : t -> t -> t
(** The product task: every participant receives a pair of inputs and must
    output a pair of outputs such that each projection is legal for the
    respective factor. Solving the product means solving both tasks in one
    wait-free protocol, so the product of solvable tasks is solvable (run
    both maps at the larger level), and a product with an unsolvable factor
    is unsolvable (project). Values are encoded ["a|b"]; both factors must
    have the same [procs]. Sizes multiply — keep the factors small. *)

val canonical_json : t -> Wfc_obs.Json.t
(** A canonical, order-insensitive JSON rendering of [(I, O, Δ)]. Vertices
    are represented by their content — [(color, label)] pairs — never by
    their arena ids, simplices as color-sorted vertex lists, complexes as
    render-sorted facet lists, and [Δ] as a render-sorted list of
    [(input simplex, sorted allowed outputs)] entries. Two tasks built from
    the same combinatorial data produce identical bytes regardless of
    enumeration order, vertex numbering, or simplex ordering. The task
    [name] is deliberately excluded: the digest addresses content. *)

val digest : t -> string
(** Hex digest of {!canonical_json}'s canonical bytes — the
    content-addressed key under which verdict stores ([wfc.store.v2]) file
    this task. Stable across processes and task re-construction. A field
    read: {!of_relation} renders it once. *)

val pp_stats : Format.formatter -> t -> unit

type automorphism = {
  a_input : (int, int) Hashtbl.t;  (** input vertex map [σ_I] *)
  a_output : (int, int) Hashtbl.t;  (** output vertex map [σ_O] *)
}
(** A task symmetry: a pair of chromatic automorphisms of [I] and [O] over
    one shared process (color) permutation [π], equivariant under [Δ] —
    [Δ(σ_I s) = σ_O(Δ s)] as simplex sets for every input simplex [s]. Such
    a pair maps decision maps to decision maps, which is what licenses the
    solvability engine's orbit pruning (DESIGN §14). *)

val automorphisms : ?limit:int -> t -> automorphism list
(** The non-identity symmetries of [(I, O, Δ)]: for every process
    permutation, every pair of {!Wfc_topology.Automorphism.automorphisms}
    of the input and output complexes realizing it, filtered by exact
    [Δ]-equivariance over the whole input closure. Deterministic order; at
    most [limit] (default 32) are returned — a subset of the group is
    always sound for pruning. The identity pair is omitted. *)
