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
        ] );
    ]
