open Wfc_topology
open Wfc_tasks

type map = {
  task : Task.t;
  level : int;
  sds : Sds.t;
  model : Model.t;
  decide : int -> int;
}

type stats = { nodes : int; backtracks : int; prunes : int; elapsed : float }

type search_event =
  | S_node of { vertex : int; domain : int }
  | S_prune of { vertex : int; removed : int }
  | S_backtrack of { vertex : int; tried : int }
  | S_root_unsat of string

type verdict =
  | Solvable of { map : map; stats : stats }
  | Unsolvable_at of { level : int; stats : stats; trail : search_event list }
  | Exhausted of { level : int; stats : stats }

let search_trace_capacity = 10_000

let search_event_to_json e =
  let open Wfc_obs.Json in
  match e with
  | S_node { vertex; domain } ->
    Obj [ ("ev", String "node"); ("vertex", Int vertex); ("domain", Int domain) ]
  | S_prune { vertex; removed } ->
    Obj [ ("ev", String "prune"); ("vertex", Int vertex); ("removed", Int removed) ]
  | S_backtrack { vertex; tried } ->
    Obj [ ("ev", String "backtrack"); ("vertex", Int vertex); ("tried", Int tried) ]
  | S_root_unsat reason -> Obj [ ("ev", String "root-unsat"); ("reason", String reason) ]

let default_budget = 5_000_000

(* ------------------------------------------------------------------ *)
(* options: the explicit knob record                                    *)
(* ------------------------------------------------------------------ *)

(* Everything that shapes an answer travels in one explicit record; the
   default record is immutable, so concurrent solves share no knob state. *)
type options = {
  trace : bool;
  budget : int;
  model : Model.t;
  symmetry : bool;
  collapse : bool;
}

let defaults =
  {
    trace = false;
    budget = default_budget;
    model = Model.wait_free;
    symmetry = true;
    collapse = true;
  }

let options ?(trace = defaults.trace) ?(budget = defaults.budget) ?(model = defaults.model)
    ?(symmetry = defaults.symmetry) ?(collapse = defaults.collapse) () =
  { trace; budget; model; symmetry; collapse }

let zero_stats = { nodes = 0; backtracks = 0; prunes = 0; elapsed = 0. }

let add_stats a b =
  {
    nodes = a.nodes + b.nodes;
    backtracks = a.backtracks + b.backtracks;
    prunes = a.prunes + b.prunes;
    elapsed = a.elapsed +. b.elapsed;
  }

let stats_of_verdict = function
  | Solvable { stats; _ } | Unsolvable_at { stats; _ } | Exhausted { stats; _ } -> stats

let verdict_name = function
  | Solvable _ -> "solvable"
  | Unsolvable_at _ -> "unsolvable"
  | Exhausted _ -> "exhausted"

let pp_stats ppf s =
  Format.fprintf ppf "nodes=%d backtracks=%d prunes=%d elapsed=%.6fs" s.nodes s.backtracks
    s.prunes s.elapsed

(* Search-local tallies: plain mutable ints on the hot path, folded into the
   global Wfc_obs counters once per [solve_at]. [n_sym] counts the subset of
   [n_prunes] owed to the lex-leader symmetry check. *)
type counts = {
  mutable n_nodes : int;
  mutable n_backtracks : int;
  mutable n_prunes : int;
  mutable n_sym : int;
}

let fresh_counts () = { n_nodes = 0; n_backtracks = 0; n_prunes = 0; n_sym = 0 }

let c_nodes = Wfc_obs.Metrics.counter "solvability.nodes"

let c_backtracks = Wfc_obs.Metrics.counter "solvability.backtracks"

let c_prunes = Wfc_obs.Metrics.counter "solvability.prunes"

let c_calls = Wfc_obs.Metrics.counter "solvability.calls"

let c_sym_orbits = Wfc_obs.Metrics.counter "solvability.symmetry.orbits"

let c_sym_pruned = Wfc_obs.Metrics.counter "solvability.symmetry.pruned"

let c_collapse_len = Wfc_obs.Metrics.counter "solvability.collapse.schedule_len"

let h_solve_at = Wfc_obs.Metrics.histogram "solvability.solve_at.seconds"

(* The CSP instance, with dense variable indices. *)
type instance = {
  nvars : int;
  domains : int array array; (* var -> candidate output vertices *)
  simplices : int array array; (* constraint -> member vars *)
  allowed : Simplex.t list array; (* constraint -> maximal allowed output simplices *)
  containing : int list array; (* var -> constraints containing it *)
}

(* The affine task's vertices and simplices are membership filters over
   [Complex.vertices] / [Complex.simplices], so they keep that order: one
   pass over the admitted facets' closure, not a test of every simplex
   against every facet. *)
let restricted_vertices ~admitted scx =
  match admitted with
  | None -> Complex.vertices scx
  | Some facets ->
    let seen = Hashtbl.create 64 in
    List.iter (Simplex.iter (fun v -> Hashtbl.replace seen v ())) facets;
    List.filter (Hashtbl.mem seen) (Complex.vertices scx)

let restricted_simplices ~admitted scx =
  match admitted with
  | None -> Complex.simplices scx
  | Some facets ->
    let closure = Simplex.Tbl.create 64 in
    List.iter
      (fun f -> List.iter (fun s -> Simplex.Tbl.replace closure s ()) (Simplex.faces f))
      facets;
    List.filter (Simplex.Tbl.mem closure) (Complex.simplices scx)

let build_instance task sds ~admitted =
  let scx = Chromatic.complex (Sds.complex sds) in
  let verts = Array.of_list (restricted_vertices ~admitted scx) in
  let nvars = Array.length verts in
  let var_of = Hashtbl.create nvars in
  Array.iteri (fun i v -> Hashtbl.replace var_of v i) verts;
  let out_cx = Chromatic.complex task.Task.output in
  let out_vertices = Complex.vertices out_cx in
  let sd = Sds.subdiv sds in
  (* Per-carrier allowed list, cached. *)
  let delta_cache = Simplex.Tbl.create 64 in
  let delta_of carrier =
    match Simplex.Tbl.find_opt delta_cache carrier with
    | Some l -> l
    | None ->
      let l = task.Task.delta carrier in
      Simplex.Tbl.replace delta_cache carrier l;
      l
  in
  let domains =
    Array.map
      (fun v ->
        let color = Sds.color sds v in
        let carrier = sd.Subdiv.carrier v in
        let allowed = delta_of carrier in
        out_vertices
        |> List.filter (fun w ->
               Chromatic.color task.Task.output w = color
               && List.exists (fun m -> Simplex.mem w m) allowed)
        |> Array.of_list)
      verts
  in
  let simplex_list =
    (* Singletons are handled by the domains; keep simplices of size >= 2. *)
    List.filter (fun s -> Simplex.card s >= 2) (restricted_simplices ~admitted scx)
  in
  let simplices =
    Array.of_list
      (List.map
         (fun s -> Array.of_list (List.map (Hashtbl.find var_of) (Simplex.to_list s)))
         simplex_list)
  in
  let allowed =
    Array.of_list
      (List.map (fun s -> delta_of (Subdiv.simplex_carrier sd s)) simplex_list)
  in
  let containing = Array.make nvars [] in
  Array.iteri
    (fun ci members -> Array.iter (fun v -> containing.(v) <- ci :: containing.(v)) members)
    simplices;
  (verts, { nvars; domains; simplices; allowed; containing })

exception Found of int array

(* AC-3 over the binary (edge) constraints: delete domain values with no
   support in some neighbor's domain. Cheap, and often decisive for
   impossibility proofs before search even starts. *)
let arc_consistency inst live =
  let edges =
    Array.to_list inst.simplices
    |> List.mapi (fun ci m -> (ci, m))
    |> List.filter (fun (_, m) -> Array.length m = 2)
  in
  (* {a, wb} ⊆ m ⟺ both vertices are members: no pair simplex is ever
     interned in the propagation loop. *)
  let supported ci a b_dom =
    List.exists
      (fun wb ->
        List.exists
          (fun m -> Simplex.mem a m && Simplex.mem wb m)
          inst.allowed.(ci))
      b_dom
  in
  let changed = ref true in
  let alive = ref true in
  while !changed && !alive do
    changed := false;
    List.iter
      (fun (ci, m) ->
        let u = m.(0) and v = m.(1) in
        let revise x y =
          let dom = live.(x) in
          let dom' = List.filter (fun wx -> supported ci wx live.(y)) dom in
          if List.compare_lengths dom' dom < 0 then begin
            live.(x) <- dom';
            changed := true;
            if dom' = [] then alive := false
          end
        in
        revise u v;
        revise v u)
      edges
  done;
  !alive

(* Static BFS order over the vertex adjacency graph, used to tie-break the
   dynamic most-constrained-first selection so the search stays local. *)
let bfs_positions inst =
  let adj = Array.make inst.nvars [] in
  Array.iter
    (fun m ->
      if Array.length m = 2 then begin
        adj.(m.(0)) <- m.(1) :: adj.(m.(0));
        adj.(m.(1)) <- m.(0) :: adj.(m.(1))
      end)
    inst.simplices;
  let pos = Array.make inst.nvars max_int in
  let counter = ref 0 in
  let queue = Queue.create () in
  for start = 0 to inst.nvars - 1 do
    if pos.(start) = max_int then begin
      pos.(start) <- !counter;
      incr counter;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let v = Queue.take queue in
        List.iter
          (fun u ->
            if pos.(u) = max_int then begin
              pos.(u) <- !counter;
              incr counter;
              Queue.add u queue
            end)
          adj.(v)
      done
    end
  done;
  pos

(* ------------------------------------------------------------------ *)
(* search reducers: symmetry (lex-leader) and collapse-guided order     *)
(* ------------------------------------------------------------------ *)

(* One instance-level symmetry of the CSP: a pair of a variable permutation
   (stored inverted — the lex walk needs σ⁻¹) and an output-vertex
   permutation, together mapping solutions to solutions. Built from a task
   automorphism (σ_I, σ_O) by lifting σ_I through the subdivision and
   restricting to the admitted variable set. *)
type auto = {
  inv_var : int array; (* var index -> σ⁻¹(var index) *)
  out_map : int array; (* output vertex id -> σ_O(output vertex id), -1 off-domain *)
}

(* Everything that reshapes one search tree, bundled so the reduced search
   and the plain re-derivation of a found map can each carry their own
   configuration. [sched] lists the variables by static position (built
   from [order_pos.(v)], the position of variable [v]). With [static_order]
   set, selection takes forced (singleton-domain) variables first and
   otherwise the {e first} unassigned variable in schedule order — the
   collapse-guided elimination order — instead of most-constrained-first.
   [autos] drives the lex-leader pruning: a partial assignment A is cut
   when some g proves A >lex g·A on the comparable prefix w.r.t. [sched].
   Any {e subset} of the symmetry group is sound (the lex-least solution of
   an orbit satisfies every constraint), so enumeration limits only cost
   pruning power, never correctness. *)
type reducers = {
  static_order : bool;
  autos : auto array;
  sched : int array;
}

let make_reducers ~static_order ~autos ~order_pos nvars =
  let sched = Array.init nvars (fun i -> i) in
  Array.sort (fun a b -> compare order_pos.(a) order_pos.(b)) sched;
  { static_order; autos; sched }

(* The lifts of the task automorphisms through SDS^level, in
   [Task.automorphisms] order, keyed by (task digest, level): they depend
   on neither the model nor the reducer flags, so every model solved at a
   level shares one list. Level 0 holds the automorphisms themselves (the
   enumeration over the output complex, the expensive half of the symmetry
   setup) with their restriction to I; level b extends level b-1 by one
   [Automorphism.lift_step], whose reverse index is built once per level.
   The maps inside are only ever read. *)
let lift_memo : (string * int, (Task.automorphism * Automorphism.vertex_map option) list) Hashtbl.t =
  Hashtbl.create 16

let rec lifts task sds =
  let key = (Task.digest task, Sds.levels sds) in
  match Hashtbl.find_opt lift_memo key with
  | Some l -> l
  | None ->
    let l =
      match Sds.prev sds with
      | None ->
        let step = Automorphism.lift_step sds in
        List.map (fun (a : Task.automorphism) -> (a, step a.Task.a_input)) (Task.automorphisms task)
      | Some lower ->
        let below = lifts task lower in
        if below = [] then []
        else
          let step = Automorphism.lift_step sds in
          List.map (fun (a, m) -> (a, Option.bind m step)) below
    in
    Hashtbl.add lift_memo key l;
    l

(* Instance-level symmetries from task automorphisms. Each (σ_I, σ_O) with
   Δ(σ_I s) = σ_O(Δ s) lifts level-by-level through SDS^b; the lift is then
   restricted to the instance variables and accepted only if it (a) permutes
   the admitted variable set, (b) maps the admitted facet set onto itself
   (so model-restricted constraint sets are preserved — PR 7 models), and
   (c) maps every variable's candidate domain onto its image variable's
   domain. (a)-(c) are re-verified numerically here, so a bug upstream
   degrades to fewer symmetries, never to wrong pruning. *)
let build_autos ~admitted task sds verts inst =
  let n = Array.length verts in
  let var_of = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace var_of v i) verts;
  let out_vertices = Complex.vertices (Chromatic.complex task.Task.output) in
  let max_out = List.fold_left max 0 out_vertices in
  let admitted_set = Option.map (List.sort_uniq Simplex.compare) admitted in
  let instance_auto ((a : Task.automorphism), lift) =
    match lift with
    | None -> None
    | Some top_map ->
      let ok = ref true in
      let var_perm = Array.make n (-1) in
      Array.iteri
        (fun i v ->
          match Hashtbl.find_opt top_map v with
          | Some v' -> (
            match Hashtbl.find_opt var_of v' with
            | Some j -> var_perm.(i) <- j
            | None -> ok := false)
          | None -> ok := false)
        verts;
      if !ok then begin
        (* bijectivity over the admitted variable set *)
        let seen = Array.make n false in
        Array.iter
          (fun j -> if j >= 0 && not seen.(j) then seen.(j) <- true else ok := false)
          var_perm
      end;
      (* admitted facet set preserved (trivial when the model is All: the
         lift is an automorphism of the whole complex) *)
      (match (admitted_set, !ok) with
      | Some facets, true ->
        let image =
          List.map
            (fun f ->
              Simplex.of_list
                (List.map (fun v -> Hashtbl.find top_map v) (Simplex.to_list f)))
            facets
          |> List.sort_uniq Simplex.compare
        in
        if not (List.equal Simplex.equal image facets) then ok := false
      | _ -> ());
      if not !ok then None
      else begin
        let out_map = Array.make (max_out + 1) (-1) in
        List.iter
          (fun w ->
            match Hashtbl.find_opt a.Task.a_output w with
            | Some w' -> out_map.(w) <- w'
            | None -> ok := false)
          out_vertices;
        (* every domain maps onto its image variable's domain *)
        if !ok then
          Array.iteri
            (fun i dom ->
              if !ok then begin
                let img =
                  Array.to_list dom |> List.map (fun w -> out_map.(w)) |> List.sort compare
                in
                let tgt = Array.to_list inst.domains.(var_perm.(i)) |> List.sort compare in
                if img <> tgt then ok := false
              end)
            inst.domains;
        if not !ok then None
        else begin
          (* drop symmetries that act as the identity on the instance *)
          let identity = ref true in
          Array.iteri (fun i j -> if i <> j then identity := false) var_perm;
          if !identity then
            Array.iter
              (fun dom -> Array.iter (fun w -> if out_map.(w) <> w then identity := false) dom)
            inst.domains;
          if !identity then None
          else begin
            let inv_var = Array.make n (-1) in
            Array.iteri (fun i j -> inv_var.(j) <- i) var_perm;
            Some { inv_var; out_map }
          end
        end
      end
  in
  let autos = ref [] in
  List.iter
    (fun a ->
      match instance_auto a with
      | Some g when not (List.exists (fun g' -> g' = g) !autos) -> autos := g :: !autos
      | _ -> ())
    (lifts task sds);
  Array.of_list (List.rev !autos)

(* Static variable order from a free-face collapsing sequence of the
   admitted subcomplex: core vertices first, then collapsed vertices in
   reverse elimination order, so the search grows the assignment outward
   from the collapse core ("expansion from the cone point"). Falls back to
   BFS positions when there is nothing to collapse. Returns the positions
   and the eliminated-vertex count (the reported schedule length). *)
let collapse_positions ~admitted sds verts inst =
  let scx = Chromatic.complex (Sds.complex sds) in
  let facets = match admitted with None -> Complex.facets scx | Some facets -> facets in
  if facets = [] || inst.nvars = 0 then (bfs_positions inst, 0)
  else begin
    let var_of = Hashtbl.create inst.nvars in
    Array.iteri (fun i v -> Hashtbl.replace var_of v i) verts;
    (* Under [All] the admitted subcomplex IS the subdivision, so collapse
       it directly and translate vertex ids afterwards — rebuilding a
       renamed complex re-interns every facet, which costs more than the
       collapse itself on deep subdivisions. A real restriction still
       rebuilds: its subcomplex is not materialized anywhere. *)
    let r =
      match admitted with
      | None -> Collapse.run scx
      | Some facets ->
        let facet_vars =
          List.map (fun f -> List.map (Hashtbl.find var_of) (Simplex.to_list f)) facets
        in
        Collapse.run (Complex.of_facets ~name:"collapse-order" facet_vars)
    in
    let order =
      match admitted with
      | None -> List.filter_map (fun v -> Hashtbl.find_opt var_of v) r.Collapse.order
      | Some _ -> r.Collapse.order
    in
    let pos = Array.make inst.nvars max_int in
    let counter = ref 0 in
    List.iter
      (fun v ->
        if v >= 0 && v < inst.nvars && pos.(v) = max_int then begin
          pos.(v) <- !counter;
          incr counter
        end)
      order;
    (* isolated variables outside every admitted facet cannot occur (the
       variable set is generated by the facets), but stay total anyway *)
    Array.iteri
      (fun v p ->
        if p = max_int then begin
          pos.(v) <- !counter;
          incr counter
        end)
      pos;
    (pos, r.Collapse.eliminated)
  end

(* Everything model-dependent that a level's setup computes, once per
   (task digest, model name, level): the admitted facet list (read by the
   instance build, [build_autos], the collapse schedule,
   [outcome_of_verdict] and [verify]), the instance symmetries and the
   collapse schedule, the last two filled on first use by a search that
   runs the reducer. Each is a pure function of the key: the SDS, the
   variable indexing and the domains are rebuilt deterministically from
   it. Cached arrays are only ever read.

   The admitted list is the model's affine task: the sub-complex of
   SDS^level generated by the admitted facets. [None] means unrestricted —
   the caller must then take the exact unrestricted enumeration path, so
   wait_free stays byte-identical to the seed engine (same vertex order,
   same node counts). Under [Per_round round] it grows level by level, as
   [lifts] does: every facet of level 0 is admitted, and a facet of level
   b is admitted iff the level-(b-1) facet it subdivides (its vertices
   projected through [Sds.own]) is admitted at level b-1 and [round]
   holds for its own ordered partition. The list keeps [Complex.facets]
   order, so a condition that admits everything yields the full complex
   in the unrestricted order. *)
type level_setup = {
  admitted : Simplex.t list option;
  mutable autos : auto array option;
  mutable schedule : (int array * int) option;
}

let setup_memo : (string * string * int, level_setup) Hashtbl.t = Hashtbl.create 16

let rec level_setup ~model task sds =
  let key = (Task.digest task, model.Model.name, Sds.levels sds) in
  match Hashtbl.find_opt setup_memo key with
  | Some s -> s
  | None ->
    let admitted =
      match model.Model.restriction with
      | Model.All -> None
      | Model.Per_round round -> (
        let facets = Complex.facets (Chromatic.complex (Sds.complex sds)) in
        match Sds.prev sds with
        | None -> Some facets
        | Some lower ->
          let below = Simplex.Tbl.create 64 in
          List.iter
            (fun f -> Simplex.Tbl.replace below f ())
            (Option.get (level_setup ~model task lower).admitted);
          Some
            (List.filter
               (fun f ->
                 Simplex.Tbl.mem below
                   (Simplex.of_list (List.map (Sds.own sds) (Simplex.to_list f)))
                 && round (Sds.facet_partition sds f))
               facets))
    in
    let s = { admitted; autos = None; schedule = None } in
    Hashtbl.add setup_memo key s;
    s

let admitted_facets ~model task sds = (level_setup ~model task sds).admitted

let clear_cache () =
  Hashtbl.reset lift_memo;
  Hashtbl.reset setup_memo

let memo_sizes () =
  [
    ("setup", Hashtbl.length setup_memo);
    ("lift", Hashtbl.length lift_memo);
    ("sds", Sds.memo_size ());
    ("arena", Simplex.arena_size ());
  ]

(* ------------------------------------------------------------------ *)
(* the search                                                           *)
(* ------------------------------------------------------------------ *)

(* The backtracking search over [inst] from the arc-consistent [live]
   domains, with at most [budget] nodes. The mutable state:
   [assignment]/[live]/[domlen] describe the partial map,
   [unassigned_count] the per-constraint countdown driving forward
   checking, and [nxt]/[prv] the doubly-linked unassigned list (index
   [nvars] is the sentinel), threaded in [red.sched] order, that variable
   selection scans. [record] receives search events with {e variable
   indices} in the vertex fields; [solve_at] translates them to SDS vertex
   ids when building the trail. *)
let run_search ~red ~counts ~record inst live budget =
  let nvars = inst.nvars in
  let sentinel = nvars in
  let assignment = Array.make nvars (-1) in
  let domlen = Array.map List.length live in
  let unassigned_count = Array.map Array.length inst.simplices in
  let nxt = Array.make (nvars + 1) sentinel in
  let prv = Array.make (nvars + 1) sentinel in
  Array.iter
    (fun v ->
      let last = prv.(sentinel) in
      nxt.(last) <- v;
      prv.(v) <- last;
      nxt.(v) <- sentinel;
      prv.(sentinel) <- v)
    red.sched;
  let detach v =
    nxt.(prv.(v)) <- nxt.(v);
    prv.(nxt.(v)) <- prv.(v)
  in
  (* valid only in LIFO order w.r.t. [detach] — the backtracking discipline *)
  let attach v =
    nxt.(prv.(v)) <- v;
    prv.(nxt.(v)) <- v
  in
  (* trail for backtracking: var domains replaced *)
  let image_ok ci extra_var extra_val =
    (* image of the constraint's simplex, assuming [extra_var := extra_val]
       on top of current assignment; unassigned members are skipped (only
       called when all others are assigned). The image is contained in an
       allowed simplex iff each member's output is: checked by O(log) member
       probes, with no simplex construction in the search's hot loop. *)
    let members = inst.simplices.(ci) in
    List.exists
      (fun m ->
        Array.for_all
          (fun v ->
            let w = if v = extra_var then extra_val else assignment.(v) in
            w < 0 || Simplex.mem w m)
          members)
      inst.allowed.(ci)
  in
  let select_var () =
    if red.static_order then begin
      (* collapse-guided static order: forced (singleton) variables first —
         they are propagation, not choice — otherwise the first unassigned
         variable in schedule order. The [nxt] list is threaded in
         [sched] order, so the head is the schedule's next vertex. *)
      let first = nxt.(sentinel) in
      if first = sentinel then -1
      else begin
        let forced = ref (-1) in
        let v = ref first in
        while !v <> sentinel && !forced < 0 do
          if domlen.(!v) <= 1 then forced := !v;
          v := nxt.(!v)
        done;
        if !forced >= 0 then !forced else first
      end
    end
    else begin
      (* most-constrained-first among unassigned, static position as
         tie-break. Scanning in ascending position order with a strict [<]
         update yields the same variable as minimizing
         [(List.length live.(v), order_pos.(v))]; a singleton domain cannot
         be beaten, so the scan stops there. *)
      let best = ref (-1) and best_len = ref max_int in
      let v = ref nxt.(sentinel) in
      while !v <> sentinel && !best_len > 1 do
        if domlen.(!v) < !best_len then begin
          best := !v;
          best_len := domlen.(!v)
        end;
        v := nxt.(!v)
      done;
      !best
    end
  in
  (* Lex-leader symmetry check for the tentative extension [v := w]: for
     each symmetry g, compare the assignment word A with g·A along the
     static schedule until a position is undefined (incomparable — accept),
     strictly smaller (lex-least so far — accept), or strictly greater
     (every completion of A is >lex its g-image, so the lex-least member of
     the orbit lives elsewhere — prune). Sound for refutations under any
     selection order, and for satisfiability because the lex-least solution
     of its orbit survives every constraint. *)
  let sym_ok =
    if Array.length red.autos = 0 then fun _ _ -> true
    else begin
      let autos = red.autos and sched = red.sched in
      let n_autos = Array.length autos and nv = Array.length sched in
      fun v w ->
        let value u = if u = v then w else assignment.(u) in
        let ok = ref true in
        let g = ref 0 in
        while !ok && !g < n_autos do
          let a = autos.(!g) in
          let i = ref 0 and stop = ref false in
          while (not !stop) && !i < nv do
            let u = sched.(!i) in
            let s = value u in
            if s < 0 then stop := true
            else begin
              let t_pre = value a.inv_var.(u) in
              if t_pre < 0 then stop := true
              else begin
                let t = a.out_map.(t_pre) in
                if s < t then stop := true
                else if s > t then begin
                  ok := false;
                  stop := true
                end
                else incr i
              end
            end
          done;
          incr g
        done;
        !ok
    end
  in
  (* forward checking after [v] was just assigned: constraints now missing
     exactly one var filter that var's domain. Returns the restore trail and
     whether every touched domain stayed non-empty. *)
  let forward_check v =
    let pruned = ref [] in
    let consistent = ref true in
    List.iter
      (fun ci ->
        unassigned_count.(ci) <- unassigned_count.(ci) - 1;
        if !consistent && unassigned_count.(ci) = 1 then begin
          let u = ref (-1) in
          Array.iter (fun m -> if assignment.(m) < 0 then u := m) inst.simplices.(ci);
          if !u >= 0 then begin
            let before = live.(!u) in
            let len_before = domlen.(!u) in
            let after = List.filter (fun w' -> image_ok ci !u w') before in
            let len_after = List.length after in
            if len_after < len_before then begin
              counts.n_prunes <- counts.n_prunes + (len_before - len_after);
              record (S_prune { vertex = !u; removed = len_before - len_after });
              pruned := (!u, before, len_before) :: !pruned;
              live.(!u) <- after;
              domlen.(!u) <- len_after;
              if len_after = 0 then consistent := false
            end
          end
        end)
      inst.containing.(v);
    (!pruned, !consistent)
  in
  let undo v pruned =
    List.iter
      (fun (u, dom, len) ->
        live.(u) <- dom;
        domlen.(u) <- len)
      pruned;
    List.iter (fun ci -> unassigned_count.(ci) <- unassigned_count.(ci) + 1) inst.containing.(v);
    attach v;
    assignment.(v) <- -1
  in
  let rec search nodes_left =
    if nodes_left <= 0 then `Budget
    else begin
      let v = select_var () in
      if v < 0 then raise (Found (Array.copy assignment))
      else begin
        counts.n_nodes <- counts.n_nodes + 1;
        record (S_node { vertex = v; domain = domlen.(v) });
        try_candidates (nodes_left - 1) live.(v) v
      end
    end
  and try_candidates budget cands v =
    match cands with
    | [] -> `Fail budget
    | w :: rest -> (
      (* check completed constraints *)
      let ok =
        List.for_all
          (fun ci ->
            unassigned_count.(ci) > 1 || image_ok ci v w)
          inst.containing.(v)
      in
      if not ok then try_candidates budget rest v
      else if not (sym_ok v w) then begin
        (* symmetry prunes cost no node budget, like the image check above;
           they are counted both as prunes and separately as [n_sym] *)
        counts.n_prunes <- counts.n_prunes + 1;
        counts.n_sym <- counts.n_sym + 1;
        record (S_prune { vertex = v; removed = 1 });
        try_candidates budget rest v
      end
      else begin
        assignment.(v) <- w;
        detach v;
        let pruned, consistent = forward_check v in
        let result =
          if consistent then search (budget - 1) else `Fail (budget - 1)
        in
        match result with
        | `Budget -> `Budget
        | `Fail budget' ->
          counts.n_backtracks <- counts.n_backtracks + 1;
          record (S_backtrack { vertex = v; tried = w });
          undo v pruned;
          try_candidates budget' rest v
      end)
  in
  match search budget with
  | `Fail _ -> `Unsat
  | `Budget -> `Budget
  | exception Found a -> `Sat a

(* The root's preprocessing: the empty-domain check, then arc consistency.
   Returns the arc-consistent live domains, or [None] when either refutes
   the level before any search. *)
let propagate ~record inst =
  if Array.exists (fun d -> Array.length d = 0) inst.domains then begin
    record (S_root_unsat "empty initial domain");
    None
  end
  else begin
    (* live domains as mutable arrays of candidate lists *)
    let live = Array.map Array.to_list inst.domains in
    if arc_consistency inst live then Some live
    else begin
      record (S_root_unsat "arc consistency wiped a domain");
      None
    end
  end

let solve_at ?opts:(o = defaults) task level =
  Wfc_obs.Metrics.with_span (Printf.sprintf "solvability.level.%d" level) @@ fun () ->
  let t0 = Wfc_obs.Metrics.now_s () in
  Wfc_obs.Metrics.incr
    (Wfc_obs.Metrics.counter ("solvability.model." ^ Model.family o.model));
  (* the phases of a solve are spans under solvability.level.<b>: build,
     propagate and, for a level whose root survives, autos, collapse,
     search and (for a reduced Sat) rerun *)
  let phase name f = Wfc_obs.Metrics.with_span ("solvability." ^ name) f in
  let sds, setup, verts, inst =
    phase "build" @@ fun () ->
    let sds = Sds.iterate task.Task.input level in
    let setup = level_setup ~model:o.model task sds in
    let verts, inst = build_instance task sds ~admitted:setup.admitted in
    (sds, setup, verts, inst)
  in
  let ring =
    if o.trace then Some (Wfc_obs.Flight.create ~capacity:search_trace_capacity) else None
  in
  let record =
    match ring with None -> fun _ -> () | Some r -> fun e -> Wfc_obs.Flight.push r e
  in
  let budget = o.budget in
  let counts = fresh_counts () in
  (* The root (empty assignment) always counts as a visited node, even when
     the instance dies in preprocessing — "nodes = 0" would otherwise be
     ambiguous between "refuted instantly" and "never ran". *)
  counts.n_nodes <- 1;
  let outcome =
    match phase "propagate" (fun () -> propagate ~record inst) with
    | None -> `Unsat
    | Some root ->
      (* Only a level whose root survives builds its reducers. Trail
         recording turns both off: the flight ring is a single
         chronological log of one canonical search, and reducer-dependent
         prune events would destroy its meaning (DESIGN §9, §14). *)
      let autos =
        if o.symmetry && not o.trace then
          phase "autos" (fun () ->
              match setup.autos with
              | Some autos -> autos
              | None ->
                let autos = build_autos ~admitted:setup.admitted task sds verts inst in
                setup.autos <- Some autos;
                autos)
        else [||]
      in
      let collapsed =
        if o.collapse && not o.trace then
          Some
            (phase "collapse" (fun () ->
                 match setup.schedule with
                 | Some r -> r
                 | None ->
                   let r = collapse_positions ~admitted:setup.admitted sds verts inst in
                   setup.schedule <- Some r;
                   r))
        else None
      in
      Wfc_obs.Metrics.add c_sym_orbits (Array.length autos);
      (match collapsed with
      | Some (_, eliminated) -> Wfc_obs.Metrics.add c_collapse_len eliminated
      | None -> ());
      let bfs = bfs_positions inst in
      let red =
        match collapsed with
        | Some (pos, _) -> make_reducers ~static_order:true ~autos ~order_pos:pos inst.nvars
        | None -> make_reducers ~static_order:false ~autos ~order_pos:bfs inst.nvars
      in
      (* Reducers change which satisfying assignment is found first, so a
         [`Sat] under active reducers is re-derived by the plain engine —
         the decision map (hence the verdict record) stays byte-identical
         to the unreduced engine's, and both phases' search costs are
         reported. The rerun starts from the same arc-consistent root and
         counts that root again, as a fresh plain solve would. Refutations
         and budget exhaustions, the cases pruning exists for, never rerun.
         The plain rerun's verdict is taken verbatim: if it exhausts the
         budget, the unreduced engine would have too. One exception skips
         the rerun: under dynamic selection with zero lex prunes fired, the
         search trajectory was step-for-step the plain engine's (every
         [sym_ok] was a no-op), so the first answer already is the
         canonical one. *)
      match
        phase "search" (fun () -> run_search ~red ~counts ~record inst (Array.copy root) budget)
      with
      | `Sat _ when red.static_order || counts.n_sym > 0 ->
        counts.n_nodes <- counts.n_nodes + 1;
        let plain = make_reducers ~static_order:false ~autos:[||] ~order_pos:bfs inst.nvars in
        phase "rerun" (fun () -> run_search ~red:plain ~counts ~record inst root budget)
      | o -> o
  in
  let elapsed = Wfc_obs.Metrics.now_s () -. t0 in
  Wfc_obs.Metrics.incr c_calls;
  Wfc_obs.Metrics.add c_nodes counts.n_nodes;
  Wfc_obs.Metrics.add c_backtracks counts.n_backtracks;
  Wfc_obs.Metrics.add c_prunes counts.n_prunes;
  Wfc_obs.Metrics.add c_sym_pruned counts.n_sym;
  Wfc_obs.Metrics.observe h_solve_at elapsed;
  let stats =
    {
      nodes = counts.n_nodes;
      backtracks = counts.n_backtracks;
      prunes = counts.n_prunes;
      elapsed;
    }
  in
  let trail () =
    match ring with
    | None -> []
    | Some r ->
      (* variable indices -> SDS vertex ids *)
      List.map
        (function
          | S_node { vertex; domain } -> S_node { vertex = verts.(vertex); domain }
          | S_prune { vertex; removed } -> S_prune { vertex = verts.(vertex); removed }
          | S_backtrack { vertex; tried } -> S_backtrack { vertex = verts.(vertex); tried }
          | S_root_unsat _ as e -> e)
        (Wfc_obs.Flight.contents r)
  in
  match outcome with
  | `Sat assignment ->
    let table = Hashtbl.create inst.nvars in
    Array.iteri (fun i v -> Hashtbl.replace table v assignment.(i)) verts;
    Solvable
      {
        map =
          { task; level; sds; model = o.model; decide = (fun v -> Hashtbl.find table v) };
        stats;
      }
  | `Unsat -> Unsolvable_at { level; stats; trail = trail () }
  | `Budget -> Exhausted { level; stats }

(* [solve] reports {e cumulative} stats over every level it tried, and its
   [budget] is likewise cumulative: each level's [solve_at] gets only what
   the previous levels left over ([budget - nodes so far]), so the sweep as
   a whole visits at most [budget] nodes plus one root pre-count per level.
   When a level exhausts the remainder — or nothing is left to hand out —
   the sweep stops with [Exhausted]. *)
let solve ?opts:(o = defaults) ~max_level task =
  Wfc_obs.Metrics.with_span "solvability.solve" @@ fun () ->
  let rec go level acc last =
    if level > max_level then last
    else
      let remaining = o.budget - acc.nodes in
      if remaining <= 0 then Exhausted { level; stats = acc }
      else
        match solve_at ~opts:{ o with budget = remaining } task level with
        | Solvable { map; stats } -> Solvable { map; stats = add_stats acc stats }
        | Unsolvable_at { level = l; stats; trail } ->
          let acc = add_stats acc stats in
          go (level + 1) acc (Unsolvable_at { level = l; stats = acc; trail })
        | Exhausted { level = l; stats } -> Exhausted { level = l; stats = add_stats acc stats }
  in
  go 0 zero_stats (Unsolvable_at { level = -1; stats = zero_stats; trail = [] })

type outcome = {
  o_verdict : string;
  o_level : int;
  o_nodes : int;
  o_backtracks : int;
  o_prunes : int;
  o_elapsed : float;
  o_decide : (int * int) list;
}

let outcome_of_verdict v =
  let stats = stats_of_verdict v in
  let level, decide =
    match v with
    | Solvable { map; _ } ->
      (* Under a restricting model the decision map covers only the affine
         task (the admitted facets' closure) — its vertices are exactly the
         instance variables. *)
      let scx = Chromatic.complex (Sds.complex map.sds) in
      let { admitted; _ } = level_setup ~model:map.model map.task map.sds in
      ( map.level,
        List.map (fun vtx -> (vtx, map.decide vtx)) (restricted_vertices ~admitted scx) )
    | Unsolvable_at { level; _ } | Exhausted { level; _ } -> (level, [])
  in
  {
    o_verdict = verdict_name v;
    o_level = level;
    o_nodes = stats.nodes;
    o_backtracks = stats.backtracks;
    o_prunes = stats.prunes;
    o_elapsed = stats.elapsed;
    o_decide = decide;
  }

let verify { task; sds; model; decide; level = _ } =
  let scx = Chromatic.complex (Sds.complex sds) in
  let sd = Sds.subdiv sds in
  (* only the model's affine task is decided, so only it is checked *)
  let { admitted; _ } = level_setup ~model task sds in
  let errors = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun v ->
      let w = decide v in
      if Chromatic.color task.Task.output w <> Sds.color sds v then
        add "vertex %d: color not preserved" v)
    (restricted_vertices ~admitted scx);
  List.iter
    (fun s ->
      let img = Simplex.of_list (List.map decide (Simplex.to_list s)) in
      if not (Complex.mem img (Chromatic.complex task.Task.output)) then
        add "simplex %s: image not a simplex" (Simplex.to_string s)
      else begin
        let carrier = Subdiv.simplex_carrier sd s in
        if not (Task.allows task carrier img) then
          add "simplex %s: image violates delta(carrier)" (Simplex.to_string s)
      end)
    (restricted_simplices ~admitted scx);
  match !errors with [] -> Ok () | errs -> Error (String.concat "; " (List.rev errs))
