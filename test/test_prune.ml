(* Tier-1 tests for the Prop 3.1 search reducers: free-face collapse of the
   protocol complex, task automorphisms and their SDS lifts, the structural
   Sds.iterate memo key, the wire codec of the reducer flags, the pinned
   search tallies, the headline guarantee — the pruned engine answers
   byte-identically to the seed engine under every builtin model — and the
   sequential engine's budget and cache behaviour. *)

open Wfc_topology
open Wfc_tasks
open Wfc_core
open Wfc_serve
open Wfc_storage

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Collapse                                                             *)
(* ------------------------------------------------------------------ *)

(* SDS^b(s^n) subdivides a simplex, so it is collapsible; the greedy
   free-face strategy must find a full collapsing sequence on the small
   instances the engine actually schedules. *)
let test_collapse_sds () =
  List.iter
    (fun (dim, levels) ->
      let sds = Sds.standard ~dim ~levels in
      let cx = Chromatic.complex (Sds.complex sds) in
      let r = Collapse.run cx in
      let nverts = List.length (Complex.vertices cx) in
      checki
        (Printf.sprintf "SDS^%d(s^%d): schedule is a total order" levels dim)
        nverts
        (List.length r.Collapse.order);
      checkb
        (Printf.sprintf "SDS^%d(s^%d): collapses to a point" levels dim)
        true r.Collapse.collapsed_to_point;
      checkb
        (Printf.sprintf "SDS^%d(s^%d): is_collapsible" levels dim)
        true
        (Collapse.is_collapsible cx))
    [ (1, 1); (1, 2); (2, 1) ]

let test_collapse_schedule_total () =
  (* even when nothing collapses (a hollow triangle has no free face), the
     schedule is still a total order over the vertices *)
  let cx = Complex.of_facets ~name:"hollow" [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
  let r = Collapse.run cx in
  checki "hollow triangle: order covers every vertex" 3 (List.length r.Collapse.order);
  checki "hollow triangle: nothing eliminated" 0 r.Collapse.eliminated;
  checkb "hollow triangle: not a point" false r.Collapse.collapsed_to_point

(* ------------------------------------------------------------------ *)
(* Automorphisms                                                        *)
(* ------------------------------------------------------------------ *)

let test_color_permutations () =
  checki "3 colors: 6 permutations" 6 (List.length (Automorphism.color_permutations [ 0; 1; 2 ]));
  checki "duplicates collapse" 2 (List.length (Automorphism.color_permutations [ 1; 0; 1 ]))

let test_task_automorphisms () =
  (* binary consensus is symmetric under swapping the processes together
     with their inputs, and under swapping the two values *)
  let t = Instances.binary_consensus ~procs:2 in
  let autos = Task.automorphisms t in
  checkb "consensus-2 has task symmetries" true (autos <> []);
  (* every reported automorphism lifts through the subdivision: that lift
     is what the engine installs *)
  let sds = Sds.iterate t.Task.input 1 in
  List.iter
    (fun a ->
      checkb "input automorphism lifts through SDS" true
        (Automorphism.lift sds a.Task.a_input <> None))
    autos;
  (* set consensus is fully symmetric in the processes *)
  let sc = Instances.set_consensus ~procs:3 ~k:2 in
  checkb "set-consensus-3-2 has task symmetries" true (Task.automorphisms sc <> [])

(* The interning search [Automorphism.automorphisms] used before it moved
   to bit sets, kept here verbatim as the reference the bit-set search is
   compared against: the same maps, in the same order, under the same
   [limit] and [fuel] cut-offs. *)
let reference_automorphisms ?(limit = 64) ?(fuel = 200_000) chroma ~perm =
  let c = Chromatic.complex chroma in
  let color = Chromatic.color chroma in
  let vs = Complex.vertices c in
  let signature v =
    let facet_dims =
      List.filter_map
        (fun f -> if Simplex.mem v f then Some (Simplex.dim f) else None)
        (Complex.facets c)
      |> List.sort Stdlib.compare
    in
    let membership =
      List.length (List.filter (fun s -> Simplex.mem v s) (Complex.simplices c))
    in
    (facet_dims, membership)
  in
  let sigs = List.map (fun v -> (v, signature v)) vs in
  let candidates v =
    let s = List.assoc v sigs in
    let cv = perm (color v) in
    List.filter_map
      (fun (w, s') -> if s = s' && color w = cv then Some w else None)
      sigs
  in
  let cand = List.map (fun v -> (v, candidates v)) vs in
  if List.exists (fun (_, cs) -> cs = []) cand then []
  else begin
    let order =
      List.stable_sort
        (fun (_, c1) (_, c2) -> compare (List.length c1) (List.length c2))
        cand
    in
    let mapping : Automorphism.vertex_map = Hashtbl.create (List.length vs) in
    let used = Hashtbl.create (List.length vs) in
    let facets = Complex.facets c in
    let facets_at = Hashtbl.create (List.length vs) in
    List.iter
      (fun f ->
        List.iter
          (fun v ->
            let prev = try Hashtbl.find facets_at v with Not_found -> [] in
            Hashtbl.replace facets_at v (f :: prev))
          (Simplex.to_list f))
      facets;
    let consistent v =
      List.for_all
        (fun f ->
          let img =
            List.filter_map (fun u -> Hashtbl.find_opt mapping u) (Simplex.to_list f)
          in
          match img with
          | [] -> true
          | img ->
            let s = Simplex.of_list img in
            Simplex.card s = List.length img && Complex.mem s c)
        (try Hashtbl.find facets_at v with Not_found -> [])
    in
    let full_check () =
      let images =
        List.map
          (fun f ->
            Simplex.of_list (List.map (fun v -> Hashtbl.find mapping v) (Simplex.to_list f)))
          facets
        |> List.sort_uniq Simplex.compare
      in
      List.equal Simplex.equal images facets
    in
    let found = ref [] and nfound = ref 0 in
    let fuel = ref fuel in
    let rec search = function
      | [] -> if full_check () then begin
          found := Hashtbl.copy mapping :: !found;
          incr nfound
        end
      | (v, cs) :: rest ->
        List.iter
          (fun w ->
            if !nfound < limit && !fuel > 0 && not (Hashtbl.mem used w) then begin
              decr fuel;
              Hashtbl.replace mapping v w;
              Hashtbl.replace used w ();
              if consistent v then search rest;
              Hashtbl.remove mapping v;
              Hashtbl.remove used w
            end)
          cs
    in
    search order;
    List.rev !found
  end

(* [Task.automorphisms] over [reference_automorphisms]: the pair search and
   Δ-equivariance filter, with each complex's maps enumerated afresh per
   color permutation. *)
let reference_task_automorphisms ?(limit = 32) (t : Task.t) =
  let map_simplex tbl s =
    Simplex.of_list (List.map (fun v -> Hashtbl.find tbl v) (Simplex.to_list s))
  in
  let is_identity tbl = Hashtbl.fold (fun k v acc -> acc && k = v) tbl true in
  let sorted = List.sort Simplex.compare in
  let equivariant a_input a_output =
    List.for_all
      (fun si ->
        match t.Task.delta (map_simplex a_input si) with
        | lhs ->
          List.equal Simplex.equal (sorted lhs)
            (sorted (List.map (map_simplex a_output) (t.Task.delta si)))
        | exception Invalid_argument _ -> false)
      (Complex.simplices (Chromatic.complex t.Task.input))
  in
  let found = ref [] and n = ref 0 in
  List.iter
    (fun perm ->
      if !n < limit then
        let ins = reference_automorphisms t.Task.input ~perm in
        let outs = reference_automorphisms t.Task.output ~perm in
        List.iter
          (fun a_input ->
            List.iter
              (fun a_output ->
                if
                  !n < limit
                  && not (is_identity a_input && is_identity a_output)
                  && equivariant a_input a_output
                then begin
                  found := { Task.a_input; a_output } :: !found;
                  incr n
                end)
              outs)
          ins)
    (Automorphism.color_permutations (Chromatic.colors t.Task.input));
  List.rev !found

(* A map's bindings in the table's own iteration order: equal lists mean
   equal maps built by the same insertions. *)
let bindings (m : Automorphism.vertex_map) = Hashtbl.fold (fun k v acc -> (k, v) :: acc) m []

(* The (task, procs, param) instances of the serving catalogue, plus
   approx 2/70 (142 output vertices: bit sets of three words on 64-bit
   hosts) and 4-process consensus (24 color permutations). *)
let reference_instances =
  [
    ("consensus", 2, 2); ("consensus", 3, 2); ("set-consensus", 2, 1);
    ("set-consensus", 2, 2); ("set-consensus", 3, 1); ("set-consensus", 3, 2);
    ("set-consensus", 3, 3); ("renaming", 2, 2); ("renaming", 2, 3);
    ("renaming", 3, 3); ("renaming", 3, 4); ("renaming", 3, 6); ("approx", 2, 2);
    ("approx", 2, 3); ("approx", 2, 4); ("approx", 3, 2); ("identity", 2, 2);
    ("identity", 3, 2); ("tas", 2, 1); ("tas", 2, 2); ("tas", 3, 1); ("tas", 3, 2);
    ("fai", 2, 2); ("fai", 3, 2); ("loop-disk", 3, 2); ("loop-circle", 3, 2);
    ("approx", 2, 70); ("consensus", 4, 2);
  ]

let test_automorphisms_match_reference () =
  List.iter
    (fun (name, procs, param) ->
      let t = Instances.by_name ~name ~procs ~param in
      let label = Printf.sprintf "%s %d/%d" name procs param in
      List.iter
        (fun (side, chroma) ->
          let enumerate = Automorphism.automorphisms chroma in
          List.iteri
            (fun k perm ->
              checkb
                (Printf.sprintf "%s %s, permutation %d" label side k)
                true
                (List.map bindings (enumerate ~perm)
                = List.map bindings (reference_automorphisms chroma ~perm)))
            (Automorphism.color_permutations (Chromatic.colors chroma)))
        [ ("input", t.Task.input); ("output", t.Task.output) ];
      let pairs autos =
        List.map (fun a -> (bindings a.Task.a_input, bindings a.Task.a_output)) autos
      in
      checkb (label ^ ": task automorphisms") true
        (pairs (Task.automorphisms t) = pairs (reference_task_automorphisms t)))
    reference_instances

(* Both cut-offs of the search: [limit] stops at the third map found, and
   [fuel] stops after 100 branch nodes, part-way through the group. *)
let test_automorphism_cutoffs () =
  let t = Instances.adaptive_renaming ~procs:3 ~names:6 in
  List.iter
    (fun (label, limit, fuel) ->
      List.iteri
        (fun k perm ->
          let got = Automorphism.automorphisms ?limit ?fuel t.Task.output ~perm in
          let want = reference_automorphisms ?limit ?fuel t.Task.output ~perm in
          checkb (Printf.sprintf "%s, permutation %d" label k) true
            (List.map bindings got = List.map bindings want))
        (Automorphism.color_permutations (Chromatic.colors t.Task.output)))
    [ ("limit 3", Some 3, None); ("fuel 100", None, Some 100) ];
  checki "limit 3 truncates" 3
    (List.length (Automorphism.automorphisms ~limit:3 t.Task.output ~perm:Fun.id));
  (* the identity permutation's group is cut at the limit, 64 maps; 100
     nodes of fuel reach only a few of them *)
  checki "fuel 100 truncates" 3
    (List.length (Automorphism.automorphisms ~fuel:100 t.Task.output ~perm:Fun.id))

(* The search interns nothing: with both complexes' closures already in
   the arena, enumerating the task symmetries files no new simplex. The
   reference search does intern its partial images, so this test is
   registered before the tests that run it. *)
let test_automorphisms_intern_nothing () =
  let t = Instances.by_name ~name:"loop-disk" ~procs:3 ~param:2 in
  ignore (Complex.simplices (Chromatic.complex t.Task.input));
  ignore (Complex.simplices (Chromatic.complex t.Task.output));
  let before = Simplex.arena_size () in
  ignore (Task.automorphisms t);
  checki "arena growth across Task.automorphisms" 0 (Simplex.arena_size () - before)

(* The lift as it was before [Automorphism.lift_step]: recursive, with the
   level's reverse index rebuilt on every call. Kept as the reference the
   shared per-level step must reproduce. *)
let rec reference_lift sds (base_map : Automorphism.vertex_map) =
  match Sds.prev sds with
  | None ->
    let cx = Chromatic.complex (Sds.complex sds) in
    let out : Automorphism.vertex_map = Hashtbl.create 16 in
    let ok = ref true in
    List.iter
      (fun v ->
        match Hashtbl.find_opt base_map v with
        | Some w when Complex.mem_vertex w cx -> Hashtbl.replace out v w
        | _ -> ok := false)
      (Complex.vertices cx);
    if !ok then Some out else None
  | Some p -> (
    match reference_lift p base_map with
    | None -> None
    | Some prev_map ->
      let vertices = Complex.vertices (Chromatic.complex (Sds.complex sds)) in
      let index = Hashtbl.create (List.length vertices) in
      List.iter
        (fun v -> Hashtbl.replace index (Sds.own sds v, Simplex.id (Sds.snap sds v)) v)
        vertices;
      let out : Automorphism.vertex_map = Hashtbl.create (List.length vertices) in
      let ok = ref true in
      List.iter
        (fun v ->
          let image =
            match
              ( Hashtbl.find_opt prev_map (Sds.own sds v),
                List.map (Hashtbl.find_opt prev_map) (Simplex.to_list (Sds.snap sds v)) )
            with
            | Some o, members when List.for_all Option.is_some members ->
              Hashtbl.find_opt index
                (o, Simplex.id (Simplex.of_list (List.map Option.get members)))
            | _ -> None
          in
          match image with Some v' -> Hashtbl.replace out v v' | None -> ok := false)
        vertices;
      if !ok then Some out else None)

(* Every task automorphism of the 26 catalogue instances lifts to the same
   map, binding for binding, whether each level's step is shared by all
   the automorphisms (one reverse index per level) or rebuilt per call. *)
let test_lift_step_matches_reference () =
  List.iter
    (fun (name, procs, param) ->
      let t = Instances.by_name ~name ~procs ~param in
      let autos = Task.automorphisms t in
      let sds2 = Sds.iterate t.Task.input 2 in
      let sds1 = Option.get (Sds.prev sds2) in
      let sds0 = Option.get (Sds.prev sds1) in
      let step0 = Automorphism.lift_step sds0
      and step1 = Automorphism.lift_step sds1
      and step2 = Automorphism.lift_step sds2 in
      List.iteri
        (fun k (a : Task.automorphism) ->
          let l1 = Option.bind (step0 a.Task.a_input) step1 in
          let l2 = Option.bind l1 step2 in
          let same level got sds =
            checkb
              (Printf.sprintf "%s %d/%d automorphism %d, level %d" name procs param k level)
              true
              (Option.map bindings got
              = Option.map bindings (reference_lift sds a.Task.a_input))
          in
          same 1 l1 sds1;
          same 2 l2 sds2;
          checkb "lifts exist" true (l2 <> None))
        autos)
    (List.filteri (fun i _ -> i < 26) reference_instances)

(* Reference for the admitted set: a top-level facet is admitted iff the
   round condition holds for the ordered partition of every level, each
   lower facet recovered by projecting the vertices through [Sds.own]. *)
let per_level round sds facet =
  let rec go sds facet =
    match Sds.prev sds with
    | None -> true
    | Some lower ->
      round (Sds.facet_partition sds facet)
      && go lower (Simplex.of_list (List.map (Sds.own sds) (Simplex.to_list facet)))
  in
  go sds facet

(* The admitted set built level by level is the per-level walk over every
   facet, in [Complex.facets] order; and the affine task by membership in
   the admitted facets' closure is the old quadratic filter (every simplex
   against every admitted facet), in the same order. *)
let test_restriction_matches_reference () =
  Solvability.clear_cache ();
  List.iter
    (fun (t, model, level) ->
      let sds = Sds.iterate t.Task.input level in
      let scx = Chromatic.complex (Sds.complex sds) in
      let admitted = Solvability.admitted_facets ~model t sds in
      let facets = Option.get admitted in
      let label what =
        Printf.sprintf "%s under %s at level %d: %s" (Complex.name scx) (Model.to_string model)
          level what
      in
      let round =
        match model.Model.restriction with
        | Model.Per_round round -> round
        | Model.All -> Alcotest.fail "restricted model expected"
      in
      checkb (label "admitted facets") true
        (List.equal Simplex.equal facets (List.filter (per_level round sds) (Complex.facets scx)));
      checkb (label "vertices") true
        (Solvability.restricted_vertices ~admitted scx
        = List.filter
            (fun v -> List.exists (fun f -> Simplex.mem v f) facets)
            (Complex.vertices scx));
      checkb (label "simplices") true
        (List.equal Simplex.equal
           (Solvability.restricted_simplices ~admitted scx)
           (List.filter
              (fun s -> List.exists (fun f -> Simplex.subset s f) facets)
              (Complex.simplices scx))))
    (List.concat_map
       (fun t ->
         List.concat_map
           (fun model -> List.map (fun level -> (t, model, level)) [ 0; 1; 2 ])
           [
             Model.t_resilient ~t:0;
             Model.t_resilient ~t:1;
             Model.k_set_affine ~k:2;
             Model.k_set_affine ~k:3;
           ])
       [ Instances.binary_consensus ~procs:3; Instances.by_name ~name:"loop-disk" ~procs:3 ~param:2 ])

(* The lifts depend on the task and the level alone, so the three models
   solved at one level share them: one lift-memo entry per level below and
   at it, not one per model. The setup memo holds one entry for the
   unrestricted model and, for each restricted model, one per level up to
   2, since a level's admitted set is built from the level below's. *)
let test_lifts_shared_across_models () =
  Solvability.clear_cache ();
  let t = Instances.by_name ~name:"loop-disk" ~procs:3 ~param:2 in
  List.iter
    (fun model -> ignore (Solvability.solve_at ~opts:(Solvability.options ~model ()) t 2))
    [ Model.wait_free; Model.t_resilient ~t:1; Model.k_set_affine ~k:2 ];
  let sizes = Solvability.memo_sizes () in
  checki "lift memo: levels 0, 1 and 2" 3 (List.assoc "lift" sizes);
  checki "setup memo: wait-free at level 2, the others at levels 0, 1 and 2" 7
    (List.assoc "setup" sizes)

(* ------------------------------------------------------------------ *)
(* Sds.iterate memo key                                                 *)
(* ------------------------------------------------------------------ *)

(* Regression: the memo used to key by complex name alone, so two distinct
   complexes sharing a name evicted each other's subdivision chains on
   every alternation. The structural-digest key must keep both. *)
let test_sds_memo_structural_key () =
  Sds.clear_cache ();
  let mk facets =
    Chromatic.make (Complex.of_facets ~name:"dup" facets) ~color:(fun v -> v)
  in
  let a = mk [ [ 0; 1 ] ] in
  let b = mk [ [ 0; 1; 2 ] ] in
  let ta = Sds.iterate a 2 in
  let tb = Sds.iterate b 2 in
  let hits = Wfc_obs.Metrics.counter "sds.memo.hits" in
  let hits0 = Wfc_obs.Metrics.value hits in
  let ta' = Sds.iterate a 2 in
  let tb' = Sds.iterate b 2 in
  checkb "same-name complex A re-served from cache" true (ta == ta');
  checkb "same-name complex B re-served from cache" true (tb == tb');
  checkb "alternation hits the memo" true (Wfc_obs.Metrics.value hits >= hits0 + 2);
  checkb "cached chains are distinct" true (not (ta == tb))

(* ------------------------------------------------------------------ *)
(* Wire codec of the reducer flags                                      *)
(* ------------------------------------------------------------------ *)

let test_wire_reducer_flags () =
  let spec =
    {
      Wire.task = "consensus";
      procs = 2;
      param = 2;
      max_level = 1;
      model = "wait-free";
      symmetry = false;
      collapse = true;
    }
  in
  (match Wire.request_of_json (Wire.request_to_json (Wire.Query { spec; req_id = None })) with
  | Ok (Wire.Query { spec = s; _ }) ->
    checkb "symmetry=false round-trips" false s.Wire.symmetry;
    checkb "collapse=true round-trips" true s.Wire.collapse
  | _ -> Alcotest.fail "query did not round-trip");
  (* pre-reducer clients omit the fields: absent means on *)
  let legacy =
    Wfc_obs.Json.Obj
      [
        ("op", Wfc_obs.Json.String "query");
        ("task", Wfc_obs.Json.String "consensus");
        ("procs", Wfc_obs.Json.Int 2);
        ("param", Wfc_obs.Json.Int 2);
        ("max_level", Wfc_obs.Json.Int 1);
      ]
  in
  match Wire.request_of_json legacy with
  | Ok (Wire.Query { spec = s; _ }) ->
    checkb "absent symmetry defaults on" true s.Wire.symmetry;
    checkb "absent collapse defaults on" true s.Wire.collapse;
    checks "absent model still defaults" "wait-free" s.Wire.model
  | _ -> Alcotest.fail "legacy query rejected"

(* ------------------------------------------------------------------ *)
(* Pruned engine == seed engine                                         *)
(* ------------------------------------------------------------------ *)

let tasks_under_test =
  [
    ("consensus-2", fun () -> Instances.binary_consensus ~procs:2);
    ("consensus-3", fun () -> Instances.binary_consensus ~procs:3);
    ("set-consensus-3-2", fun () -> Instances.set_consensus ~procs:3 ~k:2);
    ("identity-3", fun () -> Instances.id_task ~procs:3);
    ("approx-2-3", fun () -> Instances.approximate_agreement ~procs:2 ~grid:3);
  ]

let models_under_test =
  [
    Model.wait_free;
    Model.k_set_affine ~k:1;
    Model.k_set_affine ~k:2;
    Model.t_resilient ~t:1;
  ]

(* The canonical verdict object, as solve/query/store render it: every byte
   must be independent of the reducers. *)
let verdict_bytes task model max_level v =
  let r =
    Record.make ~task ~spec:"spec" ~model:(Model.to_string model) ~max_level
      ~budget:Solvability.default_budget
      (Solvability.outcome_of_verdict v)
  in
  Wfc_obs.Json.to_string (Record.verdict_json r)

let qcheck_reducers_preserve_verdicts =
  QCheck.Test.make ~count:60
    ~name:"reducers preserve verdict bytes (all builtin models)"
    QCheck.(
      pair
        (int_bound (List.length tasks_under_test - 1))
        (int_bound (List.length models_under_test - 1)))
    (fun (ti, mi) ->
      let _, mk = List.nth tasks_under_test ti in
      let model = List.nth models_under_test mi in
      let t_on = mk () and t_off = mk () in
      let on = Solvability.solve ~opts:(Solvability.options ~model ()) ~max_level:1 t_on in
      let off =
        Solvability.solve
          ~opts:(Solvability.options ~model ~symmetry:false ~collapse:false ())
          ~max_level:1 t_off
      in
      verdict_bytes t_on model 1 on = verdict_bytes t_off model 1 off)

(* Each reducer alone must also be verdict-preserving. *)
let test_single_reducer_verdicts () =
  List.iter
    (fun (name, mk) ->
      let off =
        Solvability.solve
          ~opts:(Solvability.options ~symmetry:false ~collapse:false ())
          ~max_level:1 (mk ())
      in
      let expect = verdict_bytes (mk ()) Model.wait_free 1 off in
      List.iter
        (fun (label, symmetry, collapse) ->
          let v =
            Solvability.solve
              ~opts:(Solvability.options ~symmetry ~collapse ())
              ~max_level:1 (mk ())
          in
          checks (Printf.sprintf "%s under %s" name label) expect
            (verdict_bytes (mk ()) Model.wait_free 1 v))
        [ ("symmetry only", true, false); ("collapse only", false, true); ("both", true, true) ])
    tasks_under_test

(* A map found under reducers is re-derived canonically, and still verifies. *)
let test_sat_canonical_map () =
  match
    Solvability.solve_at
      ~opts:(Solvability.options ~model:(Model.k_set_affine ~k:2) ())
      (Instances.binary_consensus ~procs:2)
      1
  with
  | Solvability.Solvable { map; _ } -> (
    match Solvability.verify map with
    | Ok () -> ()
    | Error e -> Alcotest.failf "canonicalized map fails verify: %s" e)
  | v -> Alcotest.failf "expected solvable, got %s" (Solvability.verdict_name v)

(* Pinned sequential tallies: the search is deterministic, so nodes,
   backtracks and prunes are exact functions of (task, level, reducers).
   Any drift here means the search itself changed, not just its speed. *)
let test_pinned_tallies () =
  let pin label task level ~symmetry ~collapse (nodes, backtracks, prunes) =
    let s =
      Solvability.stats_of_verdict
        (Solvability.solve_at ~opts:(Solvability.options ~symmetry ~collapse ()) task level)
    in
    checki (label ^ ": nodes") nodes s.Solvability.nodes;
    checki (label ^ ": backtracks") backtracks s.Solvability.backtracks;
    checki (label ^ ": prunes") prunes s.Solvability.prunes
  in
  let sc () = Instances.set_consensus ~procs:3 ~k:2 in
  pin "set-consensus-3-2 L1, both" (sc ()) 1 ~symmetry:true ~collapse:true (8, 7, 11);
  pin "set-consensus-3-2 L1, symmetry" (sc ()) 1 ~symmetry:true ~collapse:false (45, 52, 79);
  pin "set-consensus-3-2 L1, collapse" (sc ()) 1 ~symmetry:false ~collapse:true (16, 20, 28);
  pin "set-consensus-3-2 L1, neither" (sc ()) 1 ~symmetry:false ~collapse:false (54, 74, 103);
  pin "renaming-3-6 L3"
    (Instances.adaptive_renaming ~procs:3 ~names:6)
    3 ~symmetry:true ~collapse:true (2283, 2, 4346);
  pin "consensus-2 L4"
    (Instances.binary_consensus ~procs:2)
    4 ~symmetry:true ~collapse:true (1, 0, 0)

(* The refutation-heavy target actually gets pruned, and says so in the
   wfc.obs.v1 counters. *)
let test_reducer_counters () =
  let open Wfc_obs.Metrics in
  let orbits = counter "solvability.symmetry.orbits" in
  let pruned = counter "solvability.symmetry.pruned" in
  let sched = counter "solvability.collapse.schedule_len" in
  let o0 = value orbits and p0 = value pruned and s0 = value sched in
  let t = Instances.set_consensus ~procs:3 ~k:2 in
  let off =
    Solvability.solve_at
      ~opts:(Solvability.options ~symmetry:false ~collapse:false ())
      t 1
  in
  let on = Solvability.solve_at t 1 in
  (match (off, on) with
  | Solvability.Unsolvable_at _, Solvability.Unsolvable_at _ -> ()
  | _ -> Alcotest.fail "set-consensus-3-2 must be unsolvable at level 1");
  let s_off = Solvability.stats_of_verdict off in
  let s_on = Solvability.stats_of_verdict on in
  checkb
    (Printf.sprintf "reducers shrink the refutation (%d -> %d nodes)" s_off.Solvability.nodes
       s_on.Solvability.nodes)
    true
    (s_on.Solvability.nodes * 2 <= s_off.Solvability.nodes);
  checkb "symmetry group installed" true (value orbits > o0);
  checkb "symmetry pruned candidates" true (value pruned > p0);
  checkb "collapse schedule recorded" true (value sched > s0)

(* ------------------------------------------------------------------ *)
(* The one sequential engine: budgets, warm caches, tracing             *)
(* ------------------------------------------------------------------ *)

let solver_tasks =
  tasks_under_test
  @ [ ("renaming-2-3", fun () -> Instances.adaptive_renaming ~procs:2 ~names:3) ]

let decide_table verdict =
  match verdict with
  | Solvability.Solvable { map; _ } ->
    let scx = Chromatic.complex (Sds.complex map.Solvability.sds) in
    Some (List.map (fun v -> (v, map.Solvability.decide v)) (Complex.vertices scx))
  | _ -> None

let tallies v =
  let s = Solvability.stats_of_verdict v in
  (s.Solvability.nodes, s.Solvability.backtracks, s.Solvability.prunes)

let test_cumulative_budget () =
  let task = Instances.set_consensus ~procs:3 ~k:2 in
  let budget = 40 in
  let max_level = 2 in
  match Solvability.solve ~opts:(Solvability.options ~budget ()) ~max_level task with
  | Solvability.Exhausted { level; stats } ->
    (* the sweep shares one node budget: each level is granted only the
       remainder, so total nodes stay within budget + one root pre-count
       per level tried. (Budget ticks also cover failed candidate tries,
       so nodes can legitimately land below the budget.) *)
    checkb "sweep stays within the cumulative budget" true
      (stats.Solvability.nodes <= budget + max_level + 1);
    checkb "level 0 completed inside the shared budget" true (level >= 1);
    checkb "searched at all" true (stats.Solvability.nodes > 0)
  | v -> Alcotest.failf "expected Exhausted, got %s" (Solvability.verdict_name v)

(* The subdivision, symmetry and collapse memos all persist across calls;
   a warm solve must reproduce the cold one exactly, tallies included. *)
let test_warm_matches_cold () =
  List.iter
    (fun (name, mk) ->
      Sds.clear_cache ();
      let cold = Solvability.solve_at (mk ()) 1 in
      let warm = Solvability.solve_at (mk ()) 1 in
      checks (name ^ ": same verdict") (Solvability.verdict_name cold)
        (Solvability.verdict_name warm);
      checkb (name ^ ": same decision map") true (decide_table cold = decide_table warm);
      checkb (name ^ ": same tallies") true (tallies cold = tallies warm))
    solver_tasks

(* set-consensus-3-2 needs 8 nodes to refute level 1 with both reducers;
   a smaller budget stops the level early instead of answering. *)
let test_budget_caps_level () =
  let budget = 3 in
  match
    Solvability.solve_at ~opts:(Solvability.options ~budget ())
      (Instances.set_consensus ~procs:3 ~k:2) 1
  with
  | Solvability.Exhausted { level; stats } ->
    checki "exhausted at the level asked" 1 level;
    checkb "stays within the budget plus the root" true (stats.Solvability.nodes <= budget + 1);
    checkb "searched at all" true (stats.Solvability.nodes > 0)
  | v -> Alcotest.failf "expected Exhausted, got %s" (Solvability.verdict_name v)

(* A traced search runs with both reducers off: its tallies are those of
   the plain engine, and it records the refutation it walked. *)
let test_trace_is_plain_engine () =
  let sc () = Instances.set_consensus ~procs:3 ~k:2 in
  let traced = Solvability.solve_at ~opts:(Solvability.options ~trace:true ()) (sc ()) 1 in
  let plain =
    Solvability.solve_at ~opts:(Solvability.options ~symmetry:false ~collapse:false ()) (sc ()) 1
  in
  (match traced with
  | Solvability.Unsolvable_at { level; trail; _ } ->
    checki "refuted at level 1" 1 level;
    checkb "trail recorded" true (trail <> [])
  | v -> Alcotest.failf "expected Unsolvable_at, got %s" (Solvability.verdict_name v));
  checkb "traced tallies = plain engine tallies" true (tallies traced = tallies plain);
  let rn () = Instances.adaptive_renaming ~procs:2 ~names:3 in
  let traced = Solvability.solve_at ~opts:(Solvability.options ~trace:true ()) (rn ()) 1 in
  let default = Solvability.solve_at (rn ()) 1 in
  checkb "traced decision map = default decision map" true
    (decide_table traced <> None && decide_table traced = decide_table default)

(* Each phase of a level is its own span under solvability.level.<b>, so
   `wfc stats` shows where a cold solve spends its time. A refutation never
   reruns; a Sat found under the collapse order does. *)
let test_phase_spans () =
  let open Wfc_obs.Metrics in
  let level_children name =
    let rec find = function
      | [] -> None
      | n :: rest -> (
        if n.span_name = name then Some n
        else match find n.children with Some n -> Some n | None -> find rest)
    in
    match find (spans_now ()) with
    | Some n -> List.map (fun c -> c.span_name) n.children
    | None -> Alcotest.failf "no %s span" name
  in
  let has names phase = List.mem ("solvability." ^ phase) names in
  reset ();
  ignore (Solvability.solve ~max_level:1 (Instances.set_consensus ~procs:3 ~k:2));
  let names = level_children "solvability.level.1" in
  List.iter
    (fun phase -> checkb ("refutation has " ^ phase) true (has names phase))
    [ "build"; "propagate"; "autos"; "collapse"; "search" ];
  checkb "refutation has no rerun" false (has names "rerun");
  reset ();
  ignore (Solvability.solve_at (Instances.binary_consensus ~procs:3) 1);
  checkb "a root refutation ends after propagate" true
    (List.sort compare (level_children "solvability.level.1")
    = [ "solvability.build"; "solvability.propagate" ]);
  reset ();
  (match Solvability.solve_at (Instances.adaptive_renaming ~procs:2 ~names:3) 1 with
  | Solvability.Solvable _ -> ()
  | v -> Alcotest.failf "expected solvable, got %s" (Solvability.verdict_name v));
  checkb "reduced Sat has rerun" true (has (level_children "solvability.level.1") "rerun")

(* Binary consensus on three processes dies at the root of levels 0, 1
   and 2, so the sweep visits one node per level and builds no reducer:
   no lift is memoized and neither reducer counter moves. *)
let test_root_refutation_builds_no_reducers () =
  let open Wfc_obs.Metrics in
  let orbits = counter "solvability.symmetry.orbits" in
  let sched = counter "solvability.collapse.schedule_len" in
  Solvability.clear_cache ();
  let o0 = value orbits and s0 = value sched in
  let v = Solvability.solve ~max_level:2 (Instances.binary_consensus ~procs:3) in
  (match v with
  | Solvability.Unsolvable_at { level; _ } -> checki "refuted through level 2" 2 level
  | v -> Alcotest.failf "expected Unsolvable_at, got %s" (Solvability.verdict_name v));
  checkb "one root node per level" true (tallies v = (3, 0, 0));
  checki "no lift memoized" 0 (List.assoc "lift" (Solvability.memo_sizes ()));
  checki "no symmetry installed" o0 (value orbits);
  checki "no collapse schedule" s0 (value sched)

let test_budget_zero_exhausts () =
  match
    Solvability.solve ~opts:(Solvability.options ~budget:0 ()) ~max_level:3
      (Instances.id_task ~procs:2)
  with
  | Solvability.Exhausted { level; stats } ->
    checki "stopped before level 0" 0 level;
    checki "no nodes granted" 0 stats.Solvability.nodes
  | v -> Alcotest.failf "expected Exhausted, got %s" (Solvability.verdict_name v)

let () =
  Alcotest.run "wfc_prune"
    [
      ( "collapse",
        [
          Alcotest.test_case "SDS of a simplex collapses to a point" `Quick test_collapse_sds;
          Alcotest.test_case "schedule is total even without free faces" `Quick
            test_collapse_schedule_total;
        ] );
      ( "automorphism",
        [
          Alcotest.test_case "color permutations" `Quick test_color_permutations;
          Alcotest.test_case "task automorphisms exist and lift" `Quick
            test_task_automorphisms;
          Alcotest.test_case "enumeration interns no simplex" `Quick
            test_automorphisms_intern_nothing;
          Alcotest.test_case "bit-set search matches the interning reference" `Quick
            test_automorphisms_match_reference;
          Alcotest.test_case "limit and fuel cut off where the reference does" `Quick
            test_automorphism_cutoffs;
          Alcotest.test_case "shared lift steps match the per-call lift" `Quick
            test_lift_step_matches_reference;
          Alcotest.test_case "lifts are shared across models" `Quick
            test_lifts_shared_across_models;
          Alcotest.test_case "membership restriction matches the quadratic filter" `Quick
            test_restriction_matches_reference;
        ] );
      ( "sds-memo",
        [
          Alcotest.test_case "structural key keeps same-name complexes apart" `Quick
            test_sds_memo_structural_key;
        ] );
      ( "wire",
        [ Alcotest.test_case "reducer flags codec and defaults" `Quick test_wire_reducer_flags ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest qcheck_reducers_preserve_verdicts;
          Alcotest.test_case "each reducer alone preserves verdicts" `Quick
            test_single_reducer_verdicts;
          Alcotest.test_case "canonicalized maps verify" `Quick test_sat_canonical_map;
          Alcotest.test_case "pinned sequential tallies" `Quick test_pinned_tallies;
          Alcotest.test_case "counters and node reduction" `Quick test_reducer_counters;
        ] );
      ( "solver",
        [
          Alcotest.test_case "cumulative budget" `Quick test_cumulative_budget;
          Alcotest.test_case "warm caches = cold solve" `Quick test_warm_matches_cold;
          Alcotest.test_case "budget caps a single level" `Quick test_budget_caps_level;
          Alcotest.test_case "trace runs the plain engine" `Quick test_trace_is_plain_engine;
          Alcotest.test_case "budget 0 exhausts immediately" `Quick test_budget_zero_exhausts;
          Alcotest.test_case "solve phases are spans" `Quick test_phase_spans;
          Alcotest.test_case "a root refutation builds no reducers" `Quick
            test_root_refutation_builds_no_reducers;
        ] );
    ]
