(* Tier-1 tests for the Wfc_par domain-pool subsystem and the parallel
   subdivision built on it: channel/deque/pool semantics, the sharded
   simplex arena under concurrent interning, and the end-to-end guarantee
   that solving over a parallel-built subdivision returns exactly the
   sequential verdict. *)

open Wfc_topology
open Wfc_core

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Chan                                                                 *)

let test_chan () =
  let c = Wfc_par.Chan.create () in
  Wfc_par.Chan.send c 1;
  Wfc_par.Chan.send c 2;
  checkb "fifo 1" true (Wfc_par.Chan.recv c = Some 1);
  checkb "fifo 2" true (Wfc_par.Chan.recv c = Some 2);
  Wfc_par.Chan.send c 3;
  Wfc_par.Chan.close c;
  checkb "drains after close" true (Wfc_par.Chan.recv c = Some 3);
  checkb "closed and drained" true (Wfc_par.Chan.recv c = None);
  checkb "is_closed" true (Wfc_par.Chan.is_closed c);
  Alcotest.check_raises "send after close" (Invalid_argument "Chan.send: closed channel")
    (fun () -> Wfc_par.Chan.send c 4);
  (* a receiver blocked before the value arrives gets it *)
  let c2 = Wfc_par.Chan.create () in
  let d = Domain.spawn (fun () -> Wfc_par.Chan.recv c2) in
  Wfc_par.Chan.send c2 42;
  checkb "blocked receiver woken" true (Domain.join d = Some 42)

let test_chan_send_shared () =
  (* one send_shared, n receivers: each recv claims the value once *)
  let c = Wfc_par.Chan.create () in
  Wfc_par.Chan.send_shared c 7 3;
  checkb "claim 1" true (Wfc_par.Chan.recv c = Some 7);
  checkb "claim 2" true (Wfc_par.Chan.recv c = Some 7);
  checkb "claim 3" true (Wfc_par.Chan.recv c = Some 7);
  (* the cell is consumed after its last claim: the next value is visible *)
  Wfc_par.Chan.send c 9;
  checkb "cell popped after last claim" true (Wfc_par.Chan.recv c = Some 9);
  (* shared and plain sends interleave in fifo order *)
  Wfc_par.Chan.send c 1;
  Wfc_par.Chan.send_shared c 2 2;
  Wfc_par.Chan.send c 3;
  checkb "fifo: plain before shared" true (Wfc_par.Chan.recv c = Some 1);
  checkb "fifo: shared claim 1" true (Wfc_par.Chan.recv c = Some 2);
  checkb "fifo: shared claim 2" true (Wfc_par.Chan.recv c = Some 2);
  checkb "fifo: plain after shared" true (Wfc_par.Chan.recv c = Some 3);
  Alcotest.check_raises "claims must be positive"
    (Invalid_argument "Chan.send_shared: n < 1") (fun () ->
      Wfc_par.Chan.send_shared c 0 0);
  Wfc_par.Chan.close c;
  Alcotest.check_raises "send_shared after close"
    (Invalid_argument "Chan.send_shared: closed channel") (fun () ->
      Wfc_par.Chan.send_shared c 5 2)

(* ------------------------------------------------------------------ *)
(* Deque                                                                *)

let test_deque () =
  let q = Wfc_par.Deque.create ~capacity:3 in
  checkb "push 1" true (Wfc_par.Deque.push_bottom q 1);
  checkb "push 2" true (Wfc_par.Deque.push_bottom q 2);
  checkb "push 3" true (Wfc_par.Deque.push_bottom q 3);
  checkb "full rejects" false (Wfc_par.Deque.push_bottom q 4);
  checki "length" 3 (Wfc_par.Deque.length q);
  checkb "steal is fifo" true (Wfc_par.Deque.steal q = Some 1);
  checkb "pop is lifo" true (Wfc_par.Deque.pop_bottom q = Some 3);
  checkb "pop last" true (Wfc_par.Deque.pop_bottom q = Some 2);
  checkb "empty pop" true (Wfc_par.Deque.pop_bottom q = None);
  checkb "empty steal" true (Wfc_par.Deque.steal q = None);
  (* freed capacity is reusable (ring wrap-around) *)
  checkb "reuse" true (Wfc_par.Deque.push_bottom q 5);
  checkb "reuse pop" true (Wfc_par.Deque.pop_bottom q = Some 5)

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)

let test_pool_run () =
  let p = Wfc_par.Pool.create ~size:4 in
  Fun.protect ~finally:(fun () -> Wfc_par.Pool.shutdown p) @@ fun () ->
  let n = 64 in
  let jobs = Array.init n (fun i () -> i * i) in
  let r = Wfc_par.Pool.run p jobs in
  checkb "results in input order" true (r = Array.init n (fun i -> i * i));
  (* every job runs exactly once even when jobs outnumber domains *)
  let hits = Array.make n 0 in
  let lock = Mutex.create () in
  let jobs2 =
    Array.init n (fun i () ->
        Mutex.lock lock;
        hits.(i) <- hits.(i) + 1;
        Mutex.unlock lock)
  in
  ignore (Wfc_par.Pool.run p jobs2);
  checkb "each job ran once" true (Array.for_all (fun h -> h = 1) hits);
  (* nested run degrades to sequential instead of deadlocking *)
  let nested =
    Wfc_par.Pool.run p
      (Array.init 4 (fun i () ->
           Array.fold_left ( + ) 0 (Wfc_par.Pool.run p (Array.init 8 (fun j () -> (10 * i) + j)))))
  in
  checkb "nested batches complete" true
    (nested = Array.init 4 (fun i -> Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (10 * i) + j))))

let test_pool_exceptions () =
  let p = Wfc_par.Pool.create ~size:2 in
  Fun.protect ~finally:(fun () -> Wfc_par.Pool.shutdown p) @@ fun () ->
  let ran = Array.make 8 false in
  let jobs =
    Array.init 8 (fun i () ->
        ran.(i) <- true;
        if i = 3 || i = 5 then failwith (Printf.sprintf "job %d" i))
  in
  (match Wfc_par.Pool.run p jobs with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    Alcotest.(check string) "lowest-indexed failure wins" "job 3" msg);
  checkb "batch still drained fully" true (Array.for_all Fun.id ran)

let test_run_jobs_inline () =
  (* domains = 1 never touches the pool: thunks run on the caller *)
  let self = Domain.self () in
  let r =
    Wfc_par.run_jobs ~domains:1 (Array.init 4 (fun i () -> (i, Domain.self () = self)))
  in
  checkb "inline on caller" true (r = Array.init 4 (fun i -> (i, true)))

(* ------------------------------------------------------------------ *)
(* Sharded arena under concurrent interning                             *)

let test_arena_stress () =
  (* four domains intern the same fresh simplices concurrently: every
     domain must see the same interned id per vertex set (hash-consing
     survives the race), and the arena must grow by exactly the number of
     distinct sets. Vertices start high so nothing is interned already. *)
  let base = 100_000 in
  let sets =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> [ [ base + a ]; [ base + a; base + 50 + b ]; [ base + a; base + 50 + b; base + 100 ] ])
          [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let distinct = List.sort_uniq compare sets in
  let before = Simplex.arena_size () in
  let work () = List.map (fun vs -> (vs, Simplex.id (Simplex.of_list vs))) sets in
  let spawned = Array.init 3 (fun _ -> Domain.spawn work) in
  let mine = work () in
  let others = Array.to_list (Array.map Domain.join spawned) in
  List.iter
    (fun theirs -> checkb "same id on every domain" true (theirs = mine))
    others;
  checki "arena grew by the distinct sets exactly"
    (List.length distinct)
    (Simplex.arena_size () - before);
  (* ids are stable: re-interning afterwards changes nothing *)
  checkb "re-intern is a lookup" true (work () = mine);
  checki "no further growth" (List.length distinct) (Simplex.arena_size () - before);
  (* id density: the publication arena allocates ids under one lock, so the
     fresh simplices occupy exactly the contiguous block the arena grew by —
     no id is ever skipped or minted twice, whatever the interleaving *)
  let fresh_ids =
    List.sort_uniq compare (List.map (fun vs -> Simplex.id (Simplex.of_list vs)) distinct)
  in
  checki "no duplicate ids across keys" (List.length distinct) (List.length fresh_ids);
  let lo = List.hd fresh_ids and hi = List.nth fresh_ids (List.length fresh_ids - 1) in
  checki "ids form a contiguous block" (hi - lo) (List.length fresh_ids - 1);
  checkb "ids stay below the arena size" true (hi < Simplex.arena_size ());
  (* every key maps to one id and every id to one key: interning the verts
     behind each fresh id returns that id *)
  checkb "key -> id -> key closes" true
    (List.for_all
       (fun vs ->
         let s = Simplex.of_list vs in
         Simplex.to_list s = List.sort_uniq compare vs
         && Simplex.id (Simplex.of_list (Simplex.to_list s)) = Simplex.id s)
       distinct)

(* ------------------------------------------------------------------ *)
(* Solving over a parallel subdivision == sequential                   *)

let tasks_under_test =
  [
    ("consensus-2", fun () -> Wfc_tasks.Instances.binary_consensus ~procs:2);
    ("consensus-3", fun () -> Wfc_tasks.Instances.binary_consensus ~procs:3);
    ("set-consensus-3-2", fun () -> Wfc_tasks.Instances.set_consensus ~procs:3 ~k:2);
    ("renaming-2-3", fun () -> Wfc_tasks.Instances.adaptive_renaming ~procs:2 ~names:3);
    ("identity-3", fun () -> Wfc_tasks.Instances.id_task ~procs:3);
    ("approx-2-3", fun () -> Wfc_tasks.Instances.approximate_agreement ~procs:2 ~grid:3);
  ]

let decide_table verdict =
  match verdict with
  | Solvability.Solvable { map; _ } ->
    let scx = Chromatic.complex (Sds.complex map.Solvability.sds) in
    Some (List.map (fun v -> (v, map.Solvability.decide v)) (Complex.vertices scx))
  | _ -> None

(* The search is sequential; only building SDS^b fans out over the pool.
   Each solve starts from a cold subdivision memo so the parallel build
   really runs. *)
let solve_on domains task level =
  Sds.clear_cache ();
  Wfc_par.set_domains domains;
  Fun.protect ~finally:(fun () -> Wfc_par.set_domains 1) @@ fun () ->
  Solvability.solve_at task level

let test_parallel_matches_sequential () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun level ->
          let seq = solve_on 1 (mk ()) level in
          let par = solve_on 4 (mk ()) level in
          Alcotest.(check string)
            (Printf.sprintf "%s level %d: same verdict" name level)
            (Solvability.verdict_name seq) (Solvability.verdict_name par);
          checkb
            (Printf.sprintf "%s level %d: same decision map" name level)
            true
            (decide_table seq = decide_table par);
          let s = Solvability.stats_of_verdict seq in
          let p = Solvability.stats_of_verdict par in
          checki (name ^ ": nodes") s.Solvability.nodes p.Solvability.nodes;
          checki (name ^ ": backtracks") s.Solvability.backtracks p.Solvability.backtracks;
          checki (name ^ ": prunes") s.Solvability.prunes p.Solvability.prunes)
        [ 0; 1 ])
    tasks_under_test

let qcheck_parallel_equiv =
  QCheck.Test.make ~count:30 ~name:"solve_at domains=1 = domains=4"
    QCheck.(pair (int_bound (List.length tasks_under_test - 1)) (int_bound 1))
    (fun (ti, level) ->
      let _, mk = List.nth tasks_under_test ti in
      let seq = solve_on 1 (mk ()) level in
      let par = solve_on 4 (mk ()) level in
      Solvability.verdict_name seq = Solvability.verdict_name par
      && decide_table seq = decide_table par)

(* ------------------------------------------------------------------ *)
(* Cumulative budget across levels                                      *)

let test_cumulative_budget () =
  let task = Wfc_tasks.Instances.set_consensus ~procs:3 ~k:2 in
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

(* ------------------------------------------------------------------ *)
(* The one search engine is a pure function of (task, level, options)    *)

let tallies v =
  let s = Solvability.stats_of_verdict v in
  (s.Solvability.nodes, s.Solvability.backtracks, s.Solvability.prunes)

(* The subdivision, symmetry and collapse memos all persist across calls;
   a warm solve must reproduce the cold one exactly, tallies included. *)
let test_warm_matches_cold () =
  List.iter
    (fun (name, mk) ->
      Sds.clear_cache ();
      let cold = Solvability.solve_at (mk ()) 1 in
      let warm = Solvability.solve_at (mk ()) 1 in
      Alcotest.(check string)
        (name ^ ": same verdict")
        (Solvability.verdict_name cold) (Solvability.verdict_name warm);
      checkb (name ^ ": same decision map") true (decide_table cold = decide_table warm);
      checkb (name ^ ": same tallies") true (tallies cold = tallies warm))
    tasks_under_test

(* set-consensus-3-2 needs 8 nodes to refute level 1 with both reducers;
   a smaller budget stops the level early instead of answering. *)
let test_budget_caps_level () =
  let budget = 3 in
  match
    Solvability.solve_at ~opts:(Solvability.options ~budget ())
      (Wfc_tasks.Instances.set_consensus ~procs:3 ~k:2) 1
  with
  | Solvability.Exhausted { level; stats } ->
    checki "exhausted at the level asked" 1 level;
    checkb "stays within the budget plus the root" true (stats.Solvability.nodes <= budget + 1);
    checkb "searched at all" true (stats.Solvability.nodes > 0)
  | v -> Alcotest.failf "expected Exhausted, got %s" (Solvability.verdict_name v)

(* A traced search runs with both reducers off: its tallies are those of
   the plain engine, and it records the refutation it walked. *)
let test_trace_is_plain_engine () =
  let sc () = Wfc_tasks.Instances.set_consensus ~procs:3 ~k:2 in
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
  let rn () = Wfc_tasks.Instances.adaptive_renaming ~procs:2 ~names:3 in
  let traced = Solvability.solve_at ~opts:(Solvability.options ~trace:true ()) (rn ()) 1 in
  let default = Solvability.solve_at (rn ()) 1 in
  checkb "traced decision map = default decision map" true
    (decide_table traced <> None && decide_table traced = decide_table default)

let test_budget_zero_exhausts () =
  match Solvability.solve ~opts:(Solvability.options ~budget:0 ()) ~max_level:3 (Wfc_tasks.Instances.id_task ~procs:2) with
  | Solvability.Exhausted { level; stats } ->
    checki "stopped before level 0" 0 level;
    checki "no nodes granted" 0 stats.Solvability.nodes
  | v -> Alcotest.failf "expected Exhausted, got %s" (Solvability.verdict_name v)

(* ------------------------------------------------------------------ *)
(* Parallel subdivision == sequential subdivision                       *)

let test_parallel_sds () =
  let facet_lists s =
    List.map Simplex.to_list (Complex.facets (Chromatic.complex (Sds.complex s)))
  in
  List.iter
    (fun (dim, levels) ->
      Sds.clear_cache ();
      Wfc_par.set_domains 1;
      let seq = facet_lists (Sds.standard ~dim ~levels) in
      Sds.clear_cache ();
      Wfc_par.set_domains 4;
      let par = facet_lists (Sds.standard ~dim ~levels) in
      Wfc_par.set_domains 1;
      Sds.clear_cache ();
      checkb
        (Printf.sprintf "SDS^%d(s^%d) facets identical" levels dim)
        true (seq = par))
    [ (1, 3); (2, 2) ]

let () =
  Wfc_par.set_domains 1;
  Alcotest.run "wfc_par"
    [
      ( "primitives",
        [
          Alcotest.test_case "chan" `Quick test_chan;
          Alcotest.test_case "chan send_shared" `Quick test_chan_send_shared;
          Alcotest.test_case "deque" `Quick test_deque;
          Alcotest.test_case "pool run" `Quick test_pool_run;
          Alcotest.test_case "pool exceptions" `Quick test_pool_exceptions;
          Alcotest.test_case "run_jobs inline" `Quick test_run_jobs_inline;
        ] );
      ("arena", [ Alcotest.test_case "4-domain intern stress" `Quick test_arena_stress ]);
      ( "solver",
        [
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
          QCheck_alcotest.to_alcotest qcheck_parallel_equiv;
          Alcotest.test_case "cumulative budget" `Quick test_cumulative_budget;
          Alcotest.test_case "warm caches = cold solve" `Quick test_warm_matches_cold;
          Alcotest.test_case "budget caps a single level" `Quick test_budget_caps_level;
          Alcotest.test_case "trace runs the plain engine" `Quick test_trace_is_plain_engine;
          Alcotest.test_case "budget 0 exhausts immediately" `Quick test_budget_zero_exhausts;
        ] );
      ("sds", [ Alcotest.test_case "parallel subdivision identical" `Quick test_parallel_sds ]);
    ]
