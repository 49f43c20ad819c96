(** The decision procedure of Proposition 3.1 for bounded round counts.

    A bounded-input task [T = (I, O, Δ)] is wait-free solvable in the IIS
    model iff for some [b] there is a color-preserving simplicial map
    [φ : SDS^b(I) → O] with [φ(s) ∈ Δ(carrier(s, I))] for every simplex [s]
    — and by the paper's main theorem (§4) the same characterizes the
    atomic-snapshot model. For a fixed [b] the condition is a finite
    constraint-satisfaction problem; this module decides it by backtracking
    with forward checking:

    - one variable per vertex of [SDS^b(I)], domain = output vertices of the
      same color whose singleton is allowed for the vertex's carrier;
    - one constraint per simplex [s] of the closure: the image of [s] must
      be a face of some simplex in [Δ(carrier s)].

    {b Models.} The same procedure decides solvability under any
    {!Wfc_tasks.Model}: the model's affine task is the sub-complex of
    [SDS^b(I)] generated by the facets (runs) it admits, and the constraint
    set is built from those facets and their closures only — carriers and
    [Δ] are untouched. The default {!Wfc_tasks.Model.wait_free} admits every
    facet and takes the exact unrestricted code path, so its verdicts and
    decide tables are byte-identical to the historical engine.

    Exhausting the search space is a {e proof} that no decision map exists
    at level [b]; it is not a proof for larger [b] (by [9], no algorithm can
    decide all levels at once for three or more processes). *)

type map = {
  task : Wfc_tasks.Task.t;
  level : int;
  sds : Wfc_topology.Sds.t;  (** [SDS^level] of the task's input complex *)
  model : Wfc_tasks.Model.t;  (** the model the map solves the task under *)
  decide : int -> int;
      (** SDS vertex -> output vertex; defined on the vertices of the
          model's affine task (all of [SDS^level] under [wait_free]) *)
}

type stats = {
  nodes : int;  (** search nodes visited; >= 1 per level tried (the root
                    counts even when preprocessing refutes the instance) *)
  backtracks : int;  (** assignments undone *)
  prunes : int;  (** domain values removed by forward checking *)
  elapsed : float;  (** wall-clock seconds, including instance build *)
}
(** Search cost, carried by {e every} verdict: a negative answer is a
    completed exhaustive search and its cost is part of the result, not a
    side channel. (The old [search_nodes_of_last_call] global is gone.)
    The same tallies feed the [solvability.*] counters of {!Wfc_obs}. *)

(** One step of the backtracking search, for the machine-readable refutation
    trail. [vertex] is an SDS vertex id; [tried] the output vertex whose
    assignment was undone. *)
type search_event =
  | S_node of { vertex : int; domain : int }  (** branching, [domain] candidates live *)
  | S_prune of { vertex : int; removed : int }  (** forward checking removed values *)
  | S_backtrack of { vertex : int; tried : int }
  | S_root_unsat of string  (** refuted in preprocessing, before any branching *)

type verdict =
  | Solvable of { map : map; stats : stats }
  | Unsolvable_at of { level : int; stats : stats; trail : search_event list }
      (** search space of this level exhausted; [trail] is the recorded
          refutation trail — empty unless [trace] is on in {!options} *)
  | Exhausted of { level : int; stats : stats }  (** budget ran out *)

(** {1 Options} — every knob that shapes an answer, in one explicit record.

    A solve call reads its knobs from the [options] it was handed, or from
    the immutable {!defaults} when handed none; no solver state is
    process-global or settable. *)

type options = {
  trace : bool;
      (** record node/prune/backtrack events into a bounded ring (capacity
          10_000); an unsolvable verdict then carries the retained tail as
          its [trail]. A traced search runs the plain canonical engine (see
          {!solve_at}): the ring is a single chronological log of one
          canonical search. Off by default; the recorder sits on the
          search's hot path. *)
  budget : int;  (** search-node budget; see {!default_budget} *)
  model : Wfc_tasks.Model.t;  (** computation model; default [wait_free] *)
}

val defaults : options
(** [trace = false], [budget = default_budget], [model = wait_free]. *)

val options :
  ?trace:bool ->
  ?budget:int ->
  ?model:Wfc_tasks.Model.t ->
  ?symmetry:bool ->
  ?collapse:bool ->
  unit ->
  options
(** Build an options record: each omitted field comes from {!defaults}.
    [Solvability.options ~model ()] is the idiomatic call site.
    [?symmetry] and [?collapse] are ignored: they selected single search
    reducers, and stay only while [perfbench/replay.ml] passes them; they
    go with the next change to [perfbench/]. *)

val search_event_to_json : search_event -> Wfc_obs.Json.t

val stats_of_verdict : verdict -> stats

val verdict_name : verdict -> string
(** ["solvable"] / ["unsolvable"] / ["exhausted"] — the strings used by the
    shared [wfc.obs.v1] JSON schema. *)

val pp_stats : Format.formatter -> stats -> unit

val default_budget : int
(** [5_000_000] — the node budget used when none is given. Exposed because
    cached verdicts are only reusable under the budget they were computed
    with, so stores key on it. *)

val clear_cache : unit -> unit
(** Drops the solver's two memos, so that benchmarks can time cold solves.
    Verdicts and stats do not depend on them:
    - the level setup, per [(Task.digest, model name, level)]: the model's
      admitted facet list, the instance symmetries and the collapse
      schedule;
    - the task automorphisms, one entry per [Task.digest], shared by
      every model and level (their lifts through [SDS^level] are
      recomputed for each level setup that needs them). *)

val memo_sizes : unit -> (string * int) list
(** Entry counts of the memos a solve fills: ["setup"] and ["lift"]
    (see {!clear_cache}), ["sds"] ({!Wfc_topology.Sds.memo_size}),
    ["arena"], the interned simplices ({!Wfc_topology.Simplex.arena_size}),
    and ["faces"], the cached face lists
    ({!Wfc_topology.Simplex.faces_memo_size}); {!clear_cache} drops
    neither of the last two. The daemon's [stats] reply reports
    them as gauges. The ["lift"] gauge counts task digests whose
    automorphisms were enumerated; a level refuted at its root adds no
    entry. *)

(** {1 The affine task} — what a model restricts [SDS^b] to. *)

val admitted_facets :
  model:Wfc_tasks.Model.t ->
  Wfc_tasks.Task.t ->
  Wfc_topology.Sds.t ->
  Wfc_topology.Simplex.t list option
(** [admitted_facets ~model task sds]: the facets of [sds]'s top level
    that the model admits, in {!Wfc_topology.Complex.facets} order; [None]
    for an unrestricted model. Under [Per_round round] the set grows level
    by level: level 0 admits every facet, and a facet of level b is
    admitted iff the level-(b-1) facet it subdivides (its vertices mapped
    through {!Wfc_topology.Sds.own}) is admitted and [round] holds for its
    ordered partition ({!Wfc_topology.Sds.facet_partition}). Each level's
    set is memoized per [(Task.digest, model name, level)] (see
    {!clear_cache}), so this reads the memo and fills the levels below on
    a miss; [sds] must be [task]'s input subdivided. *)

val restricted_vertices :
  admitted:Wfc_topology.Simplex.t list option -> Wfc_topology.Complex.t -> int list
(** The affine task's vertices, in {!Wfc_topology.Complex.vertices} order:
    those of some admitted facet (all of them under [None]). *)

val restricted_simplices :
  admitted:Wfc_topology.Simplex.t list option ->
  Wfc_topology.Complex.t ->
  Wfc_topology.Simplex.t list
(** The affine task's simplices, in {!Wfc_topology.Complex.simplices}
    order: a membership filter against the closure of the admitted facets,
    linear in that closure. *)

val solve_at : ?opts:options -> Wfc_tasks.Task.t -> int -> verdict
(** Decide level [b] exactly (up to [opts.budget] search nodes), under
    [opts.model]'s affine restriction. Stats cover this level only. Each
    call bumps the per-model-family counter [solvability.model.<family>]
    ({!Wfc_tasks.Model.family}: the name without its parameter).

    The search is sequential and deterministic: verdict, decide table and
    [stats] (except [elapsed]) are functions of the task, level and
    options alone.

    The root is propagated first: a level with an empty initial domain, or
    one that arc consistency wipes out, is [Unsolvable_at] with one node
    and builds no reducer. Only a level whose root survives searches,
    from the arc-consistent domains, with one of the two engines below.

    {b Two engines} (DESIGN §14). An untraced level whose root survives
    runs the {e plain canonical engine} first (dynamic
    most-constrained-first selection, no symmetries), from the
    arc-consistent root, within an allowance of 16 budget units per
    instance variable (about 8 nodes each), charged to [opts.budget]. A
    [Solvable] or [Unsolvable_at] it reaches inside the allowance is the
    answer; when the allowance is the whole budget, running out of it is
    [Exhausted]. Only a level it leaves open falls through to the
    {!solve_at_reduced} engine, with the rest of the budget, and bumps
    [solvability.reduced.levels]. Every level of the serving catalogue
    settles inside the allowance. [opts.trace] runs the plain engine
    alone, with the whole budget, so trails stay canonical. *)

val solve_at_reduced : ?opts:options -> Wfc_tasks.Task.t -> int -> verdict
(** [solve_at] without the plain engine's allowance: every untraced level
    whose root survives runs the {e reduced engine}, the fallback
    {!solve_at} takes for the levels the plain engine leaves open. Tests
    and benchmarks call it to measure and pin the reducers; verdict bytes
    equal {!solve_at}'s.

    The reduced engine installs the instance-level symmetries of
    [(I, O, Δ)] — task automorphisms, pairs of input/output automorphisms
    over one process permutation with [Δ(σ_I s) = σ_O(Δ s)], lifted
    through [SDS^b] and restricted to the model's admitted facet set,
    which every installed symmetry must preserve — and prunes candidates
    that are provably not lex-least in their orbit, while variable
    selection follows a static free-face collapsing schedule of the
    admitted subcomplex. A refutation under pruning is still an exhaustive
    proof: the lex-least solution of any orbit survives every constraint,
    so an empty pruned space implies an empty space. Every [Solvable] it
    finds is re-derived by the plain canonical engine from the same
    arc-consistent root before being returned, so decide tables are the
    plain engine's and [stats] include every phase's costs. Counted in
    [solvability.reduced.levels], [solvability.symmetry.orbits] /
    [.pruned] and [solvability.collapse.schedule_len]. *)

val solve : ?opts:options -> max_level:int -> Wfc_tasks.Task.t -> verdict
(** Try levels [0 .. max_level] in order; returns the first [Solvable], the
    last [Unsolvable_at] if all levels exhaust their search spaces, or
    [Exhausted] as soon as a level overruns the budget. Stats are cumulative
    over all levels tried, and [opts.budget] is a cumulative node budget for
    the whole sweep: each level is granted only what the previous levels
    left ([budget - stats.nodes] so far), so the sweep never costs more than
    one [solve_at] at the same budget. [opts] (model included) is passed
    through to each {!solve_at}. *)

(** {1 Flattened verdicts} — what the verdict store files (DESIGN §10). *)

type outcome = {
  o_verdict : string;  (** {!verdict_name} of the underlying verdict *)
  o_level : int;  (** solvable: the map's level; otherwise the last level tried *)
  o_nodes : int;
  o_backtracks : int;
  o_prunes : int;
  o_elapsed : float;
  o_decide : (int * int) list;
      (** solvable only: the full decision table, affine-task vertex of
          [SDS^o_level] -> output vertex, sorted by vertex — a serializable
          witness of the map (every [SDS^o_level] vertex under
          [wait_free]). Empty otherwise. *)
}
(** A verdict flattened to plain data: what the persistent verdict store
    ([wfc.store.v2]) files and the daemon's wire protocol ships. Everything
    except [o_elapsed] is a deterministic function of
    [(task, model, max_level, budget)] (see {!solve_at}), so stored and freshly computed outcomes agree
    byte-for-byte once timing is stripped. *)

val outcome_of_verdict : verdict -> outcome

val verify : map -> (unit, string) result
(** Independent re-check of a claimed decision map over the model's affine
    task: color preservation, simpliciality, and the [Δ]-condition on every
    closure simplex of the admitted facets. The search already guarantees
    this; tests use it as an oracle. *)
