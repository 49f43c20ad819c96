(* Benchmark and experiment harness.

   Running this executable regenerates every experiment in EXPERIMENTS.md
   (the paper is a theory paper: its "tables and figures" are protocol
   listings and lemmas, each of which corresponds to a measurable artifact
   here), then runs bechamel micro-benchmarks over the library's hot
   operations.

     dune exec bench/main.exe                    # experiments + micro-benchmarks
     dune exec bench/main.exe -- quick           # experiments only
     dune exec bench/main.exe -- --json FILE     # timed scenarios (median of 5) -> wfc.obs.v1
     dune exec bench/main.exe -- --only store    # just one scenario family

   Any other argument is a usage error (exit 2) before anything runs. *)

open Wfc_topology
open Wfc_model
open Wfc_tasks
open Wfc_core

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — the k-shot atomic snapshot full-information protocol  *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  Figure 1: k-shot atomic-snapshot full-information protocol";
  Printf.printf "%6s %6s %14s %14s\n" "n+1" "k" "shared ops/run" "distinct views";
  List.iter
    (fun (procs, k) ->
      let inputs = Array.init procs (fun i -> i) in
      let views = Hashtbl.create 64 in
      let ops = ref 0 in
      let trials = 50 in
      for seed = 0 to trials - 1 do
        let o =
          Runtime.run (Full_information.atomic_k_shot ~procs ~k ~inputs) (Runtime.random ~seed ())
        in
        Array.iter
          (function
            | Some v ->
              Hashtbl.replace views (Full_information.canonical_view (Printf.sprintf "#%d") v) ()
            | None -> ())
          o.Runtime.results;
        for p = 0 to procs - 1 do
          ops := !ops + Trace.steps_of o.Runtime.trace p
        done
      done;
      Printf.printf "%6d %6d %14.1f %14d\n" procs k
        (float_of_int !ops /. float_of_int trials)
        (Hashtbl.length views))
    [ (2, 1); (2, 2); (3, 1); (3, 2); (4, 2) ]

(* ------------------------------------------------------------------ *)
(* E2: Figure 2 — emulation of atomic snapshots over IIS                *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2  Figure 2: emulation cost and atomicity (Prop 4.1 / Cor 4.1)";
  Printf.printf "%6s %6s %12s %14s %12s\n" "n+1" "k" "memories" "writereads/p" "atomic";
  List.iter
    (fun (procs, k) ->
      let trials = 40 in
      let mem = ref 0 and wr = ref 0 and ok = ref 0 in
      for seed = 0 to trials - 1 do
        let r =
          Emulation.run (Emulation.full_information_spec ~procs ~k) (Runtime.random ~seed ())
        in
        mem := !mem + r.Emulation.cost.Emulation.memories;
        wr := !wr + Array.fold_left ( + ) 0 r.Emulation.cost.Emulation.write_reads;
        if Emulation.check r = Ok () then incr ok
      done;
      Printf.printf "%6d %6d %12.1f %14.1f %9d/%d\n" procs k
        (float_of_int !mem /. float_of_int trials)
        (float_of_int !wr /. float_of_int (trials * procs))
        !ok trials)
    [ (2, 1); (2, 2); (2, 4); (2, 8); (3, 1); (3, 2); (3, 4); (4, 2); (5, 2) ];
  Printf.printf "\nwith one crashed process (n+1=3, k=2): ";
  let ok = ref 0 in
  let trials = 40 in
  for seed = 0 to trials - 1 do
    let r =
      Emulation.run
        (Emulation.full_information_spec ~procs:3 ~k:2)
        (Runtime.random_with_crashes ~seed ~crash:[ seed mod 3 ] ())
    in
    if Emulation.check r = Ok () then incr ok
  done;
  Printf.printf "atomic %d/%d\n" !ok trials

(* ------------------------------------------------------------------ *)
(* E3/E4: protocol complexes = SDS^b (Lemmas 3.2 and 3.3)               *)
(* ------------------------------------------------------------------ *)

let e3_e4 () =
  section "E3  Lemma 3.2: one-shot IS protocol complex = SDS(s^n)";
  Printf.printf "%6s %10s %12s %10s\n" "n+1" "facets" "SDS facets" "equal";
  List.iter
    (fun procs ->
      let pc = Protocol_complex.one_shot_is ~procs in
      let sds = Sds.standard ~dim:(procs - 1) ~levels:1 in
      Printf.printf "%6d %10d %12d %10b\n" procs
        (Complex.num_facets (Chromatic.complex pc.Protocol_complex.chromatic))
        (Sds.count_facets ~dim:(procs - 1) ~levels:1)
        (Protocol_complex.matches_sds pc sds))
    [ 1; 2; 3; 4 ];
  section "E4  Lemma 3.3: b-shot IIS protocol complex = SDS^b(s^n)";
  Printf.printf "%6s %6s %10s %12s %10s\n" "n+1" "b" "facets" "SDS^b" "equal";
  List.iter
    (fun (procs, b) ->
      let pc = Protocol_complex.iis ~procs ~rounds:b in
      let sds = Sds.standard ~dim:(procs - 1) ~levels:b in
      Printf.printf "%6d %6d %10d %12d %10b\n" procs b
        (Complex.num_facets (Chromatic.complex pc.Protocol_complex.chromatic))
        (Sds.count_facets ~dim:(procs - 1) ~levels:b)
        (Protocol_complex.matches_sds pc sds))
    [ (2, 1); (2, 2); (2, 3); (3, 1); (3, 2) ]

(* ------------------------------------------------------------------ *)
(* E5: Lemma 2.2 — no holes                                             *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  Lemma 2.2: SDS^b(s^n) and its links have no holes (Z/2 homology)";
  Printf.printf "%6s %6s %20s %10s %12s\n" "n" "b" "reduced betti" "acyclic" "links ok";
  List.iter
    (fun (n, b) ->
      let cx = Chromatic.complex (Sds.complex (Sds.standard ~dim:n ~levels:b)) in
      let betti =
        String.concat ","
          (Array.to_list (Array.map string_of_int (Homology.reduced_betti cx)))
      in
      let links_ok =
        List.for_all
          (fun sq ->
            let q = Simplex.dim sq in
            let max_hole = n - (q + 1) in
            max_hole < 1
            ||
            match Complex.link sq cx with
            | None -> true
            | Some l -> Homology.no_holes_up_to l max_hole)
          (Complex.simplices cx)
      in
      Printf.printf "%6d %6d %20s %10b %12b\n" n b ("(" ^ betti ^ ")")
        (Homology.is_acyclic cx) links_ok)
    [ (1, 1); (1, 3); (2, 1); (2, 2); (3, 1) ];
  Printf.printf "\ninteger homology (Smith normal form) on control spaces:\n";
  List.iter
    (fun (name, cx) -> Printf.printf "  %-12s %s\n" name (Homology_z.homology_summary cx))
    [
      ("SDS^2(s^2)", Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:2)));
      ("2-sphere", Option.get (Complex.boundary (Complex.full_simplex 3)));
      ( "torus",
        Complex.of_facets
          (List.init 7 (fun i -> [ i mod 7; (i + 1) mod 7; (i + 3) mod 7 ])
          @ List.init 7 (fun i -> [ i mod 7; (i + 2) mod 7; (i + 3) mod 7 ])) );
      ( "RP^2",
        Complex.of_facets
          [ [ 0; 1; 4 ]; [ 0; 1; 5 ]; [ 0; 2; 3 ]; [ 0; 2; 5 ]; [ 0; 3; 4 ];
            [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ 1; 3; 5 ]; [ 2; 4; 5 ]; [ 3; 4; 5 ] ] );
    ]

(* ------------------------------------------------------------------ *)
(* E6: solvability verdicts (Prop 3.1 / Cor 5.2)                        *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  Proposition 3.1: solvability verdicts";
  Printf.printf "%-30s %8s %22s %12s\n" "task" "max b" "verdict" "nodes";
  let entry name task max_level =
    let verdict = Solvability.solve ~max_level task in
    let nodes = (Solvability.stats_of_verdict verdict).Solvability.nodes in
    let label =
      match verdict with
      | Solvability.Solvable { map; _ } ->
        Printf.sprintf "solvable at b=%d" map.Solvability.level
      | Solvability.Unsolvable_at { level = b; _ } -> Printf.sprintf "unsolvable (b<=%d)" b
      | Solvability.Exhausted { level; _ } -> Printf.sprintf "undecided at b=%d" level
    in
    Printf.printf "%-30s %8d %22s %12d\n" name max_level label nodes
  in
  entry "identity (3 procs)" (Instances.id_task ~procs:3) 1;
  entry "consensus (2 procs)" (Instances.binary_consensus ~procs:2) 3;
  entry "consensus (3 procs)" (Instances.binary_consensus ~procs:3) 1;
  entry "(2,1)-set consensus" (Instances.set_consensus ~procs:2 ~k:1) 2;
  entry "(3,2)-set consensus" (Instances.set_consensus ~procs:3 ~k:2) 1;
  entry "(3,3)-set consensus" (Instances.set_consensus ~procs:3 ~k:3) 1;
  entry "renaming (2 procs, 2 names)" (Instances.adaptive_renaming ~procs:2 ~names:2) 3;
  entry "renaming (2 procs, 3 names)" (Instances.adaptive_renaming ~procs:2 ~names:3) 2;
  entry "renaming (3 procs, 6 names)" (Instances.adaptive_renaming ~procs:3 ~names:6) 1;
  entry "eps-agreement grid 3" (Instances.approximate_agreement ~procs:2 ~grid:3) 2;
  entry "eps-agreement grid 9" (Instances.approximate_agreement ~procs:2 ~grid:9) 3;
  entry "eps-agreement 3 procs grid 2" (Instances.approximate_agreement ~procs:3 ~grid:2) 1;
  entry "(2,1)-test-and-set" (Instances.k_test_and_set ~procs:2 ~k:1) 2;
  entry "(2,2)-test-and-set" (Instances.k_test_and_set ~procs:2 ~k:2) 1;
  entry "(3,2)-test-and-set" (Instances.k_test_and_set ~procs:3 ~k:2) 1;
  entry "fetch&inc order (2 procs)" (Instances.fetch_and_increment_order ~procs:2) 2;
  entry "loop agreement on a disk" (Instances.loop_agreement_on_disk ()) 1;
  entry "loop agreement on a circle" (Instances.loop_agreement_on_circle ()) 2;
  entry "renaming x eps-agreement"
    (Task.product
       (Instances.adaptive_renaming ~procs:2 ~names:3)
       (Instances.approximate_agreement ~procs:2 ~grid:3))
    2;
  entry "renaming x consensus"
    (Task.product
       (Instances.adaptive_renaming ~procs:2 ~names:3)
       (Instances.binary_consensus ~procs:2))
    2;
  Printf.printf "\neps-agreement round complexity (2 procs): minimal b vs grid\n";
  Printf.printf "%8s %8s\n" "grid" "min b";
  List.iter
    (fun grid ->
      match Solvability.solve ~max_level:4 (Instances.approximate_agreement ~procs:2 ~grid) with
      | Solvability.Solvable { map; _ } -> Printf.printf "%8d %8d\n" grid map.Solvability.level
      | _ -> Printf.printf "%8d %8s\n" grid "?")
    [ 1; 2; 3; 4; 8; 9; 10; 27 ]

(* ------------------------------------------------------------------ *)
(* E7: Lemma 5.3 — minimal approximation levels                         *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  Lemma 5.3: minimal k for a carrier-preserving map onto A";
  Printf.printf "%-16s %12s %12s\n" "target A" "Bsd^k" "SDS^k";
  List.iter
    (fun (name, target) ->
      let show scheme =
        match Approximation.min_level ~scheme ~target () with
        | Some (k, _) -> string_of_int k
        | None -> ">6"
      in
      Printf.printf "%-16s %12s %12s\n" name (show `Bsd) (show `Sds))
    [
      ("SDS(s^1)", Sds.subdiv (Sds.standard ~dim:1 ~levels:1));
      ("SDS^2(s^1)", Sds.subdiv (Sds.standard ~dim:1 ~levels:2));
      ("Bsd^2(s^1)", Subdivision.subdiv (Subdivision.iterate (Chromatic.standard_simplex 1) 2));
      ("SDS(s^2)", Sds.subdiv (Sds.standard ~dim:2 ~levels:1));
      ("Bsd(s^2)", Subdivision.subdiv (Subdivision.iterate (Chromatic.standard_simplex 2) 1));
    ];
  Printf.printf "\nmesh shrinkage (squared max edge length, exact rationals):\n";
  Printf.printf "%6s %16s %16s\n" "level" "SDS^b(s^2)" "Bsd^k(s^2)";
  List.iter
    (fun l ->
      let sds = Subdiv.mesh_sq (Sds.subdiv (Sds.standard ~dim:2 ~levels:l)) in
      let bsd =
        Subdiv.mesh_sq (Subdivision.subdiv (Subdivision.iterate (Chromatic.standard_simplex 2) l))
      in
      Printf.printf "%6d %16s %16s\n" l (Rat.to_string sds) (Rat.to_string bsd))
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* E8: Theorem 5.1 — chromatic convergence                              *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  Theorem 5.1: chromatic simplex agreement (CSASS) end to end";
  Printf.printf "%-16s %8s %14s\n" "target A" "k" "validation";
  List.iter
    (fun (name, target) ->
      match Convergence.prepare target with
      | Some t ->
        let v = match Convergence.validate t with Ok () -> "OK" | Error _ -> "FAILED" in
        Printf.printf "%-16s %8d %14s\n" name t.Convergence.level v
      | None -> Printf.printf "%-16s %8s %14s\n" name "-" "no map")
    [
      ("SDS(s^1)", Sds.subdiv (Sds.standard ~dim:1 ~levels:1));
      ("SDS^2(s^1)", Sds.subdiv (Sds.standard ~dim:1 ~levels:2));
      ("SDS(s^2)", Sds.subdiv (Sds.standard ~dim:2 ~levels:1));
    ]

(* ------------------------------------------------------------------ *)
(* E9: Borowsky–Gafni immediate snapshot from atomic snapshots          *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  [8] substrate: BG one-shot immediate snapshot from snapshots";
  List.iter
    (fun m ->
      let current = ref [] in
      let make () =
        current := [];
        Bg_is.actions_recording
          ~inputs:(Array.init m (fun i -> i))
          ~record:(fun i set _ -> current := (i, List.map fst set) :: !current)
      in
      let legal = ref 0 and total = ref 0 in
      ignore
        (Explore.explore ~max_runs:500_000 make (fun _ ->
             incr total;
             if Trace.check_immediate_snapshot !current = Ok () then incr legal));
      Printf.printf "m=%d: exhaustive %d schedules, %d legal immediate snapshots\n" m !total
        !legal)
    [ 2; 3 ];
  List.iter
    (fun m ->
      let legal = ref 0 in
      let trials = 300 in
      for seed = 0 to trials - 1 do
        let r = Bg_is.run ~inputs:(Array.init m (fun i -> i)) (Runtime.random ~seed ()) in
        if Trace.check_immediate_snapshot (Bg_is.views r) = Ok () then incr legal
      done;
      Printf.printf "m=%d: %d/%d random adversarial runs legal\n" m !legal trials)
    [ 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* E10: Lemma 3.1 — decision bounds                                     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 Lemma 3.1: decision bounds from the execution tree";
  Printf.printf "%-34s %10s %10s %10s\n" "protocol" "runs" "bound" "depth";
  let entry name make =
    let r = Bounded.decision_bound make in
    Printf.printf "%-34s %10d %10d %10d\n" name r.Bounded.runs r.Bounded.bound r.Bounded.depth
  in
  entry "IS renaming, 2 procs" (fun () -> Protocols.is_renaming ~procs:2);
  entry "IS renaming, 3 procs" (fun () -> Protocols.is_renaming ~procs:3);
  entry "BG immediate snapshot, 2 procs" (fun () -> Bg_is.actions ~inputs:[| 0; 1 |]);
  entry "IIS full-info, 2 procs, 3 rounds" (fun () ->
      Full_information.iis_k_shot ~procs:2 ~k:3 ~inputs:[| 0; 1 |]);
  entry "averaging agreement, 2p 2r" (fun () ->
      Protocols.approximate_agreement ~procs:2 ~rounds:2 ~inputs:[| Rat.zero; Rat.one |])

(* ------------------------------------------------------------------ *)
(* E11: one-round atomic vs immediate snapshot complexes                *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11 one-round atomic snapshot complex strictly contains the IS complex";
  Printf.printf "%6s %14s %10s %14s %14s\n" "n+1" "atomic facets" "IS facets" "IS in atomic"
    "atomic in IS";
  List.iter
    (fun procs ->
      let pa = Protocol_complex.atomic ~procs ~rounds:1 in
      let pis = Protocol_complex.one_shot_is ~procs in
      Printf.printf "%6d %14d %10d %14b %14b\n" procs
        (Complex.num_facets (Chromatic.complex pa.Protocol_complex.chromatic))
        (Complex.num_facets (Chromatic.complex pis.Protocol_complex.chromatic))
        (Protocol_complex.is_subcomplex_of pis pa)
        (Protocol_complex.is_subcomplex_of pa pis))
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* E12: Sperner parity (set-consensus obstruction at any level)         *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12 Sperner parity on SDS^b(s^n): panchromatic facets are always odd";
  Printf.printf "%6s %6s %12s %14s %12s\n" "n" "b" "labelings" "all odd" "min count";
  List.iter
    (fun (n, b) ->
      let sds = Sds.standard ~dim:n ~levels:b in
      let all_odd = ref true and mincount = ref max_int in
      let trials = 100 in
      for seed = 0 to trials - 1 do
        let label = Sperner.random_sperner_labeling ~seed sds in
        let c = List.length (Sperner.panchromatic_facets sds ~label) in
        if c mod 2 = 0 then all_odd := false;
        if c < !mincount then mincount := c
      done;
      Printf.printf "%6d %6d %12d %14b %12d\n" n b trials !all_odd !mincount)
    [ (1, 2); (2, 1); (2, 2); (3, 1) ]

(* ------------------------------------------------------------------ *)
(* E13: fill-ins and two-process NCSAC (section 5 building blocks)      *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13 fill-ins and two-process simplex agreement (NCSAC base case)";
  (* 0-sphere fill-ins: paths in the skeleton of SDS^b(s^2) *)
  Printf.printf "%-22s %10s %10s\n" "complex" "diameter" "rounds";
  List.iter
    (fun (name, cx) ->
      Printf.printf "%-22s %10d %10d\n" name (Fillin.diameter cx) (Ncsac.rounds_needed cx))
    [
      ("SDS(s^2) skeleton", Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:1)));
      ("SDS^2(s^2) skeleton", Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:2)));
      ("path of 16 edges", Complex.of_facets (List.init 16 (fun i -> [ i; i + 1 ])));
    ];
  (* 1-sphere fill-in: the boundary of SDS(s^2) bounds the whole disk *)
  let cx = Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:1)) in
  let b = Option.get (Complex.boundary cx) in
  let next = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match Simplex.to_list e with
      | [ a; b' ] ->
        let add x y =
          let l = try Hashtbl.find next x with Not_found -> [] in
          Hashtbl.replace next x (y :: l)
        in
        add a b';
        add b' a
      | _ -> ())
    (Complex.facets b);
  let start = List.hd (Complex.vertices b) in
  let rec walk prev v acc =
    let n = List.find (fun x -> x <> prev) (Hashtbl.find next v) in
    if n = start then List.rev acc else walk v n (n :: acc)
  in
  let cycle = walk (-1) start [ start ] in
  (match Fillin.fill_cycle cx cycle with
  | Some d ->
    Printf.printf "\nboundary 9-cycle of SDS(s^2): fill-in with %d triangles (disk = 13)\n"
      (Complex.num_facets d)
  | None -> Printf.printf "\nboundary cycle: NO FILL-IN (unexpected)\n");
  (* distributed two-process convergence over random adversaries *)
  let sk = Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:2)) in
  let vs = Complex.vertices sk in
  let a = List.hd vs and bb = List.nth vs (List.length vs - 1) in
  let verdict =
    match Ncsac.validate sk ~inputs:(a, bb) with Ok () -> "validated" | Error e -> e
  in
  Printf.printf
    "two-process convergence on SDS^2(s^2) skeleton (30 seeds, crashes, solos): %s\n" verdict

(* ------------------------------------------------------------------ *)
(* E14: adversary structure vs emulation cost                           *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14 adversary structure vs Figure-2 emulation cost (n+1=3, k=2)";
  Printf.printf "%-26s %12s %14s %10s\n" "adversary" "memories" "writereads/p" "atomic";
  let spec = Emulation.full_information_spec ~procs:3 ~k:2 in
  let show name strategy_of =
    let trials = 20 in
    let mem = ref 0 and wr = ref 0 and ok = ref 0 in
    for seed = 0 to trials - 1 do
      let r = Emulation.run spec (strategy_of seed) in
      mem := !mem + r.Emulation.cost.Emulation.memories;
      wr := !wr + Array.fold_left ( + ) 0 r.Emulation.cost.Emulation.write_reads;
      if Emulation.check r = Ok () then incr ok
    done;
    Printf.printf "%-26s %12.1f %14.1f %7d/%d\n" name
      (float_of_int !mem /. float_of_int trials)
      (float_of_int !wr /. float_of_int (trials * 3))
      !ok trials
  in
  show "round robin" (fun _ -> Runtime.round_robin ());
  show "random" (fun seed -> Runtime.random ~seed ());
  show "isolating (victim 0)" (fun _ -> Runtime.isolating ~victim:0 ());
  show "random + crash" (fun seed -> Runtime.random_with_crashes ~seed ~crash:[ seed mod 3 ] ())

(* ------------------------------------------------------------------ *)
(* E16: exact two-process verdicts (all levels at once)                 *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16 exact two-process decidability (connectivity, every level at once)";
  Printf.printf "%-30s %-28s %10s\n" "task" "exact verdict" "agrees";
  let entry name t =
    let verdict =
      match Decidability.two_process t with
      | Decidability.Solvable_at b -> Printf.sprintf "solvable at b=%d" b
      | Decidability.Unsolvable -> "unsolvable at EVERY level"
    in
    Printf.printf "%-30s %-28s %10b\n" name verdict (Decidability.agrees_with_search t)
  in
  entry "consensus" (Instances.binary_consensus ~procs:2);
  entry "(2,1)-test-and-set" (Instances.k_test_and_set ~procs:2 ~k:1);
  entry "renaming, 2 names" (Instances.adaptive_renaming ~procs:2 ~names:2);
  entry "renaming, 3 names" (Instances.adaptive_renaming ~procs:2 ~names:3);
  entry "fetch&inc order" (Instances.fetch_and_increment_order ~procs:2);
  entry "eps-agreement grid 9" (Instances.approximate_agreement ~procs:2 ~grid:9);
  entry "eps-agreement grid 27" (Instances.approximate_agreement ~procs:2 ~grid:27);
  entry "identity" (Instances.id_task ~procs:2)

(* ------------------------------------------------------------------ *)
(* E15: the BG simulation (resiliency technology of [10, 11])           *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15 BG simulation: s simulators run an m-process snapshot protocol";
  Printf.printf "%6s %6s %6s %10s %12s %14s %10s\n" "sims" "m" "k" "complete" "agreements"
    "ops/simulator" "legal";
  List.iter
    (fun (s, m, k) ->
      let spec = Bg_simulation.full_information_spec ~procs:m ~k in
      let trials = 15 in
      let complete = ref 0 and agreements = ref 0 and ops = ref 0 and legal = ref 0 in
      for seed = 0 to trials - 1 do
        let r = Bg_simulation.run ~simulators:s spec (Runtime.random ~seed ()) in
        complete :=
          !complete + Array.fold_left (fun a b -> if b then a + 1 else a) 0 r.Bg_simulation.completed;
        agreements := !agreements + r.Bg_simulation.cost.Bg_simulation.agreements;
        ops := !ops + Array.fold_left ( + ) 0 r.Bg_simulation.cost.Bg_simulation.simulator_ops;
        if Bg_simulation.check spec r = Ok () then incr legal
      done;
      Printf.printf "%6d %6d %6d %10.1f %12.1f %14.1f %7d/%d\n" s m k
        (float_of_int !complete /. float_of_int trials)
        (float_of_int !agreements /. float_of_int trials)
        (float_of_int !ops /. float_of_int (trials * s))
        !legal trials)
    [ (2, 2, 2); (2, 3, 2); (2, 3, 4); (3, 4, 2); (3, 5, 2); (4, 5, 2) ];
  (* the resiliency headline: one simulator crash, at least m-1 complete *)
  Printf.printf "\nwith one crashed simulator (2 sims, 3 procs, k=2):\n";
  let spec = Bg_simulation.full_information_spec ~procs:3 ~k:2 in
  let min_complete = ref max_int and legal = ref 0 in
  let trials = 30 in
  for seed = 0 to trials - 1 do
    let r =
      Bg_simulation.run ~simulators:2 spec
        (Runtime.random_with_crashes ~seed ~crash:[ seed mod 2 ] ())
    in
    let c = Array.fold_left (fun a b -> if b then a + 1 else a) 0 r.Bg_simulation.completed in
    if c < !min_complete then min_complete := c;
    if Bg_simulation.check spec r = Ok () then incr legal
  done;
  Printf.printf "min completed = %d (guarantee >= %d), legal histories %d/%d\n" !min_complete
    (Bg_simulation.min_completed ~simulators:2 ~crashed:1 spec)
    !legal trials

(* ------------------------------------------------------------------ *)
(* bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro-benchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let tests =
    [
      Test.make ~name:"sds: build SDS^1(s^2)"
        (Staged.stage (fun () -> ignore (Sds.standard ~dim:2 ~levels:1)));
      Test.make ~name:"sds: build SDS^2(s^2)"
        (Staged.stage (fun () -> ignore (Sds.standard ~dim:2 ~levels:2)));
      Test.make ~name:"bsd: build Bsd^2(s^2)"
        (Staged.stage (fun () -> ignore (Subdivision.iterate (Chromatic.standard_simplex 2) 2)));
      Test.make ~name:"homology: betti SDS^2(s^2)"
        (let cx = Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:2)) in
         Staged.stage (fun () -> ignore (Homology.reduced_betti cx)));
      Test.make ~name:"model: one-shot IS complex (3 procs)"
        (Staged.stage (fun () -> ignore (Protocol_complex.one_shot_is ~procs:3)));
      Test.make ~name:"emulation: n=3 k=2 random run"
        (Staged.stage (fun () ->
             ignore
               (Emulation.run
                  (Emulation.full_information_spec ~procs:3 ~k:2)
                  (Runtime.random ~seed:1 ()))));
      Test.make ~name:"solvability: renaming(2,3) at b=1"
        (let task = Instances.adaptive_renaming ~procs:2 ~names:3 in
         Staged.stage (fun () -> ignore (Solvability.solve_at task 1)));
      Test.make ~name:"solvability: consensus(2) UNSAT at b=2"
        (let task = Instances.binary_consensus ~procs:2 in
         Staged.stage (fun () -> ignore (Solvability.solve_at task 2)));
      Test.make ~name:"bg-is: 4 procs random run"
        (Staged.stage (fun () ->
             ignore (Bg_is.run ~inputs:[| 0; 1; 2; 3 |] (Runtime.random ~seed:2 ()))));
      Test.make ~name:"approximation: SDS^1 -> SDS(s^2)"
        (let target = Sds.subdiv (Sds.standard ~dim:2 ~levels:1) in
         let source = Sds.subdiv (Sds.standard ~dim:2 ~levels:1) in
         Staged.stage (fun () -> ignore (Approximation.approximate ~source ~target)));
      Test.make ~name:"sperner: label + count SDS^2(s^2)"
        (let sds = Sds.standard ~dim:2 ~levels:2 in
         Staged.stage (fun () ->
             let label = Sperner.random_sperner_labeling ~seed:3 sds in
             ignore (Sperner.panchromatic_facets sds ~label)));
      Test.make ~name:"runtime: IIS full-info 3 procs 3 rounds"
        (Staged.stage (fun () ->
             ignore
               (Runtime.run
                  (Full_information.iis_k_shot ~procs:3 ~k:3 ~inputs:[| 0; 1; 2 |])
                  (Runtime.random ~seed:4 ()))));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  Printf.printf "%-44s %16s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            let pretty =
              if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
              else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
              else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
              else Printf.sprintf "%.0f ns" est
            in
            Printf.printf "%-44s %16s\n" name pretty
          | _ -> Printf.printf "%-44s %16s\n" name "n/a")
        analysis)
    tests

(* ------------------------------------------------------------------ *)
(* timed scenarios (--json FILE): machine-readable perf trajectory      *)
(* ------------------------------------------------------------------ *)

let emulation_sweep ~sink () =
  let spec = Emulation.full_information_spec ~procs:3 ~k:4 in
  for seed = 0 to 29 do
    ignore (Emulation.run ~sink ~show:Fun.id spec (Runtime.random ~seed ()))
  done

(* Each scenario is a thunk returning (search nodes, verdict), both optional.
   Timed cold: every per-run cache that survives across calls is cleared
   first so the JSON numbers track the representation, not the memo. *)

(* A scenario whose thunk times only its hot section (excluding setup)
   sets this from inside the thunk, and the report carries it instead of
   the external wall-clock; run_scenarios consumes and clears it around
   every scenario. The storage scenarios time their op loop without the
   seeding, and sds_skeleton_reuse times the replay alone. *)
let self_timed : float option ref = ref None

(* Extra per-scenario JSON fields (latency percentiles, op counts) set from
   inside a thunk, merged into the scenario object by run_scenarios. The
   storage scenarios use it: one store operation is microseconds, far below
   what a single external wall-clock resolves, so they report p50/p95 over
   thousands of timed ops instead. *)
let self_extra : (string * Wfc_obs.Json.t) list ref = ref []

(* --quick (set from main before the scenarios run) trims the repeat counts
   of the self-timed scenarios: CI wants the schema and the smoke numbers,
   not the noise-floor statistics the committed BENCH_wfc.json carries *)
let quick_scenarios = ref false

let scenarios : (string * (unit -> int option * string option)) list =
  let solved v =
    let s = Solvability.stats_of_verdict v in
    (Some s.Solvability.nodes, Some (Solvability.verdict_name v))
  in
  let solv task level = fun () -> solved (Solvability.solve_at task level) in
  let solve_up task max_level = fun () -> solved (Solvability.solve ~max_level task) in
  let plain thunk = fun () -> thunk (); (None, None) in
  (* The level-1 refutation is ~60 nodes, far below timer resolution, so it
     is repeated; the first call warms the subdivision memo, the remaining
     reps time the search engine alone. [~reduced:true] runs the reduced
     engine ([Solvability.solve_at_reduced]) instead of the default path. *)
  let solve_rep ?model ?trace ?(reduced = false) ~reps task level = fun () ->
    let opts = Solvability.options ?model ?trace () in
    let solve_at = if reduced then Solvability.solve_at_reduced else Solvability.solve_at in
    let v = ref (solve_at ~opts task level) in
    for _ = 2 to reps do v := solve_at ~opts task level done;
    solved !v
  in
  (* Storage engine at scale: a store seeded with 10k records (500 under
     --quick), then per-op latency distributions for the three tiers of a
     lookup (fresh put / cold disk read / LRU hit), a miss, and ls (one
     walk of the tree, decoding every record). The scenario's [seconds] is
     the whole timed loop; p50/p95 of the individual ops ride in the extra
     fields. The seeded store is built once and shared by the five
     scenarios (it is read-only for the gets and ls; puts use fresh
     digests). *)
  let store_count () = if !quick_scenarios then 500 else 10_000 in
  let store_ops () = if !quick_scenarios then 100 else 1_000 in
  let seeded_store : Wfc_storage.Engine.t option ref = ref None in
  let store_env () =
    match !seeded_store with
    | Some st -> st
    | None ->
      let dir = Filename.temp_file "wfc-bench-store10k" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let st = Wfc_storage.Engine.open_store dir in
      Wfc_storage.Engine.seed st ~count:(store_count ());
      seeded_store := Some st;
      st
  in
  let seed_digest i = Digest.to_hex (Digest.string (Printf.sprintf "wfc-seed-%d" i)) in
  let percentiles samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    let at p = a.(min (Array.length a - 1) (int_of_float (p *. float_of_int (Array.length a)))) in
    (at 0.50, at 0.95)
  in
  (* time [f] over [n] ops, publish total as the scenario time and the
     per-op p50/p95 (plus the store scale) as extra fields, in seconds and
     in microseconds: the report prints floats to six decimals, which
     leaves a µs-scale latency in seconds one significant digit *)
  let timed_ops ?(extra = []) n f = fun () ->
    let samples = ref [] in
    let t0 = Wfc_obs.Metrics.now_s () in
    for i = 0 to n - 1 do
      let s0 = Wfc_obs.Metrics.now_s () in
      f i;
      samples := (Wfc_obs.Metrics.now_s () -. s0) :: !samples
    done;
    self_timed := Some (Wfc_obs.Metrics.now_s () -. t0);
    let p50, p95 = percentiles !samples in
    self_extra :=
      [
        ("ops", Wfc_obs.Json.Int n);
        ("records", Wfc_obs.Json.Int (store_count ()));
        ("latency_p50_s", Wfc_obs.Json.Float p50);
        ("latency_p95_s", Wfc_obs.Json.Float p95);
        ("latency_p50_us", Wfc_obs.Json.Float (p50 *. 1e6));
        ("latency_p95_us", Wfc_obs.Json.Float (p95 *. 1e6));
      ]
      @ extra;
    (None, None)
  in
  let store_put = fun () ->
    let eng = store_env () in
    timed_ops (store_ops ()) (fun i ->
        let digest = Digest.to_hex (Digest.string (Printf.sprintf "bench-put-%d" i)) in
        Wfc_storage.Engine.put eng
          {
            Wfc_storage.Record.digest;
            task = Printf.sprintf "bench(procs=2,param=%d)" i;
            model = "wait-free";
            procs = 2;
            max_level = 1;
            budget = 5_000_000;
            outcome =
              {
                Solvability.o_verdict = "unsolvable";
                o_level = 1;
                o_nodes = i;
                o_backtracks = 0;
                o_prunes = 0;
                o_elapsed = 0.001;
                o_decide = [];
              };
            created_at = float_of_int i;
          }) ()
  in
  let store_get tier = fun () ->
    let st = store_env () in
    (* a cold get must hit the disk: a fresh handle has an empty LRU, and
       every op asks a distinct digest so no op warms the next. A cached
       get asks the same digests through a handle that just read them all
       (cap 4096 >= ops), so every op is an LRU hit. A miss asks digests
       nothing was filed under, through a fresh handle: the full cost of
       learning that a question is not in the store. *)
    let eng = Wfc_storage.Engine.open_store (Wfc_storage.Engine.dir st) in
    let digest i =
      if tier = `Miss then Digest.to_hex (Digest.string (Printf.sprintf "bench-miss-%d" i))
      else seed_digest i
    in
    let ask i =
      ignore
        (Wfc_storage.Engine.find eng ~digest:(digest i) ~model:"wait-free"
           ~max_level:(i mod 3) ~budget:5_000_000)
    in
    if tier = `Cached then
      for i = 0 to store_ops () - 1 do
        ask i
      done;
    timed_ops (store_ops ()) ask ()
  in
  let store_ls = fun () ->
    let eng = store_env () in
    let reps = if !quick_scenarios then 5 else 20 in
    timed_ops
      ~extra:
        [ ("entries", Wfc_obs.Json.Int (List.length (Wfc_storage.Engine.ls eng).records)) ]
      reps
      (fun _ -> ignore (Wfc_storage.Engine.ls eng))
      ()
  in
  (* Persisted-skeleton reuse: SDS^3(s^2) built cold from nothing vs cold
     from the skeleton keyspace (memo cleared both times — "cold" means a
     new process, not a new store). The replay skips the enumeration
     search, yet it measures slower than the cold build (BENCH_wfc.json:
     22.0 ms against 26.8 ms), which is why no daemon or CLI store
     attaches the keyspace. Both times ride in the extra fields,
     [seconds] is the replay. *)
  let sds_skeleton_reuse = fun () ->
    let dir = Filename.temp_file "wfc-bench-skel" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    let st = Wfc_storage.Engine.open_store dir in
    Sds.clear_cache ();
    let t0 = Wfc_obs.Metrics.now_s () in
    ignore (Sds.standard ~dim:2 ~levels:3);
    let cold_s = Wfc_obs.Metrics.now_s () -. t0 in
    Wfc_storage.Engine.attach_skeletons st;
    Fun.protect
      ~finally:(fun () -> Sds.set_skeleton_store None)
      (fun () ->
        (* populate the keyspace, then replay it from a cleared memo *)
        Sds.clear_cache ();
        ignore (Sds.standard ~dim:2 ~levels:3);
        Sds.clear_cache ();
        let t1 = Wfc_obs.Metrics.now_s () in
        ignore (Sds.standard ~dim:2 ~levels:3);
        let replay_s = Wfc_obs.Metrics.now_s () -. t1 in
        self_timed := Some replay_s;
        self_extra :=
          [
            ("cold_s", Wfc_obs.Json.Float cold_s);
            ("replay_s", Wfc_obs.Json.Float replay_s);
          ];
        (None, None))
  in
  (* Symmetry setup: Task.automorphisms called directly (the solver's
     per-digest memo is bypassed) on four catalogue tasks, each built and
     both its closures computed before the clock starts, so only the
     enumeration is timed. [seconds] is the sum; each task's time rides in
     the extra fields. *)
  let task_automorphisms = fun () ->
    let tasks =
      List.map
        (fun (key, name, procs, param) ->
          let t = Instances.by_name ~name ~procs ~param in
          ignore (Complex.simplices (Chromatic.complex t.Task.input));
          ignore (Complex.simplices (Chromatic.complex t.Task.output));
          (key, t))
        [
          ("renaming_3_6_s", "renaming", 3, 6);
          ("loop_disk_3_2_s", "loop-disk", 3, 2);
          ("loop_circle_3_2_s", "loop-circle", 3, 2);
          ("set_consensus_4_2_s", "set-consensus", 4, 2);
        ]
    in
    let times =
      List.map
        (fun (key, t) ->
          let t0 = Wfc_obs.Metrics.now_s () in
          ignore (Task.automorphisms t);
          (key, Wfc_obs.Metrics.now_s () -. t0))
        tasks
    in
    self_timed := Some (List.fold_left (fun acc (_, s) -> acc +. s) 0. times);
    self_extra := List.map (fun (key, s) -> (key, Wfc_obs.Json.Float s)) times;
    (None, None)
  in
  (* Complex isomorphism (Lemma 3.2's statement): SDS(s^3) against a copy
     relabelled by a fixed shuffle, once with the process colors
     ([Iso.chromatic_isomorphic]) and once without ([Iso.isomorphic]),
     each repeated [reps] times. Both complexes are built and their
     closures computed before the clock starts. [seconds] is the sum;
     the per-call milliseconds of each ride in the extra fields. *)
  let iso_sds_s3 = fun () ->
    let reps = 10 in
    let a = Sds.complex (Sds.standard ~dim:3 ~levels:1) in
    let ca = Chromatic.complex a in
    let vs = Array.of_list (Complex.vertices ca) in
    let shuffled = Array.copy vs in
    let rng = Random.State.make [| 3 |] in
    for i = Array.length shuffled - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = shuffled.(i) in
      shuffled.(i) <- shuffled.(j);
      shuffled.(j) <- t
    done;
    let image = Hashtbl.create (Array.length vs) and preimage = Hashtbl.create (Array.length vs) in
    Array.iteri
      (fun i v ->
        Hashtbl.replace image v (shuffled.(i) + 10_000);
        Hashtbl.replace preimage (shuffled.(i) + 10_000) v)
      vs;
    let b =
      Chromatic.make
        (Complex.relabel (Hashtbl.find image) ca)
        ~color:(fun w -> Chromatic.color a (Hashtbl.find preimage w))
    in
    ignore (Complex.simplices ca);
    ignore (Complex.simplices (Chromatic.complex b));
    let per_call f =
      let t0 = Wfc_obs.Metrics.now_s () in
      for _ = 1 to reps do
        if not (f ()) then failwith "bench: iso_sds_s3_l1: the copy is not isomorphic"
      done;
      (Wfc_obs.Metrics.now_s () -. t0) /. float_of_int reps
    in
    let chromatic_s = per_call (fun () -> Iso.chromatic_isomorphic a b) in
    let plain_s = per_call (fun () -> Iso.isomorphic ca (Chromatic.complex b)) in
    self_timed := Some (float_of_int reps *. (chromatic_s +. plain_s));
    self_extra :=
      [
        ("reps", Wfc_obs.Json.Int reps);
        ("chromatic_ms", Wfc_obs.Json.Float (chromatic_s *. 1e3));
        ("plain_ms", Wfc_obs.Json.Float (plain_s *. 1e3));
      ];
    (None, None)
  in
  (* A cold solve's level setup: three tasks solved up to level 2 under
     each builtin model, from cleared solver memos (run_scenarios clears
     them), so every (task, level) pays its automorphism lifts once and
     every (task, model, level) its admitted facets, symmetries and
     collapse schedule once. The tasks are built before the clock starts;
     [nodes] sums the nine solves, and each model's seconds ride in the
     extra fields. *)
  let solve_models_cold = fun () ->
    let tasks =
      List.map
        (fun (name, procs, param) -> Instances.by_name ~name ~procs ~param)
        [ ("loop-disk", 3, 2); ("consensus", 3, 2); ("renaming", 3, 6) ]
    in
    let nodes = ref 0 in
    let times =
      List.map
        (fun model ->
          let t0 = Wfc_obs.Metrics.now_s () in
          List.iter
            (fun t ->
              let v = Solvability.solve ~opts:(Solvability.options ~model ()) ~max_level:2 t in
              nodes := !nodes + (Solvability.stats_of_verdict v).Solvability.nodes)
            tasks;
          (Wfc_tasks.Model.to_string model ^ "_s", Wfc_obs.Metrics.now_s () -. t0))
        Wfc_tasks.Model.[ wait_free; t_resilient ~t:1; k_set_affine ~k:2 ]
    in
    self_timed := Some (List.fold_left (fun acc (_, s) -> acc +. s) 0. times);
    self_extra := List.map (fun (key, s) -> (key, Wfc_obs.Json.Float s)) times;
    (Some !nodes, None)
  in
  [
    ("sds_iterate_s2_l3", plain (fun () -> ignore (Sds.standard ~dim:2 ~levels:3)));
    ("sds_iterate_s2_l4", plain (fun () -> ignore (Sds.standard ~dim:2 ~levels:4)));
    ("sds_iterate_s3_l2", plain (fun () -> ignore (Sds.standard ~dim:3 ~levels:2)));
    ( "sds_closure_f_vector_s2_l3",
      plain (fun () ->
          let cx = Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:3)) in
          ignore (Complex.f_vector cx)) );
    ( "drop_non_maximal_sds_s2_l3",
      plain (fun () ->
          let cx = Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:3)) in
          (* rebuild a complex from the full closure: stress-tests maximality
             filtering on ~46k simplices *)
          ignore (Complex.of_simplices (Complex.simplices cx))) );
    ("solvability_renaming_3_6_l3", solv (Instances.adaptive_renaming ~procs:3 ~names:6) 3);
    ("solvability_set_consensus_3_3_l4", solv (Instances.set_consensus ~procs:3 ~k:3) 4);
    ("solvability_consensus_2_unsat_l4", solv (Instances.binary_consensus ~procs:2) 4);
    (* the question that needs both reducers at once: neither alone
       answers it within minutes, so the default path exhausts the plain
       engine's allowance and falls through to them; skipped under
       --quick *)
    ("solvability_set_consensus_4_3_l1", solv (Instances.set_consensus ~procs:4 ~k:3) 1);
    ( "solvability_eps_agreement_grid27",
      solve_up (Instances.approximate_agreement ~procs:2 ~grid:27) 5 );
    ("task_automorphisms", task_automorphisms);
    ("iso_sds_s3_l1", iso_sds_s3);
    ("solve_models_cold", solve_models_cold);
    ( "protocol_complex_iis_3_r2",
      plain (fun () -> ignore (Protocol_complex.iis ~procs:3 ~rounds:2)) );
    (* trace sink overhead: the same 30 seeded emulation runs with recording
       off, bounded (the always-on flight recorder), and full (replayable
       wfc.trace.v1 stream). Ring must stay within a few percent of off. *)
    ("emulation_trace_off", plain (fun () -> emulation_sweep ~sink:Runtime.Off ()));
    ("emulation_trace_ring", plain (fun () -> emulation_sweep ~sink:(Runtime.Ring 4096) ()));
    ("emulation_trace_full", plain (fun () -> emulation_sweep ~sink:Runtime.Full ()));
    (* model-restricted solving: the k-set affine task of the same workload.
       The restriction filters facets before the instance is built, so this
       tracks both the predicate cost and the smaller search space. *)
    ( "solve_kset_affine",
      solve_rep ~model:(Wfc_tasks.Model.k_set_affine ~k:2) ~reps:200
        (Instances.set_consensus ~procs:3 ~k:2) 1 );
    (* the two engines (DESIGN §14) on the same level-1 refutation: the
       plain canonical engine, reached through [trace] (so its time
       includes the flight ring's pushes), then the reduced engine, which
       the default path does not reach here (the plain engine settles the
       level within its allowance). Node counts are the point — the
       refutation must shrink while the verdict JSON stays byte-identical
       (test_prune's qcheck compares them); wall-clock on a ~60-node
       search is repeated noise-floor. *)
    ( "solve_no_reducers",
      solve_rep ~trace:true ~reps:200 (Instances.set_consensus ~procs:3 ~k:2) 1 );
    ( "solve_both",
      solve_rep ~reduced:true ~reps:200 (Instances.set_consensus ~procs:3 ~k:2) 1 );
    (* storage engine at 10k records: the three lookup tiers, the miss
       and the tree-walking ls, per-op p50/p95 in the extra fields *)
    ("store_put", store_put);
    ("store_get_cold", store_get `Cold);
    ("store_get_cached", store_get `Cached);
    ("store_get_miss", store_get `Miss);
    ("store_ls_10k", store_ls);
    ("sds_skeleton_reuse", sds_skeleton_reuse);
  ]

(* Under --json every scenario runs [runs] times and reports the median
   as [seconds], with the fastest and slowest run beside it: one sample
   per side cannot tell a change from scheduler noise. Search node counts
   are deterministic, so runs that disagree on them stop the bench.
   [full_only] scenarios take seconds per run and are skipped under
   --quick. *)
let full_only = [ "solvability_set_consensus_4_3_l1" ]

let run_scenarios ?only ~runs () =
  section "timed scenarios";
  (* metrics restart here so the report's counters cover exactly these runs *)
  Wfc_obs.Metrics.reset ();
  Printf.printf "%-36s %12s %12s %12s %12s\n" "scenario" "seconds" "min" "max" "nodes";
  let scenarios =
    if !quick_scenarios then List.filter (fun (sname, _) -> not (List.mem sname full_only)) scenarios
    else scenarios
  in
  let selected =
    match only with
    | None -> scenarios
    | Some subs ->
      let subs = String.split_on_char ',' subs in
      let contains sname sub =
        let n = String.length sub in
        let rec at i = i + n <= String.length sname && (String.sub sname i n = sub || at (i + 1)) in
        at 0
      in
      List.filter (fun (sname, _) -> List.exists (contains sname) subs) scenarios
  in
  List.map
    (fun (sname, thunk) ->
      let run () =
        Sds.clear_cache ();
        Solvability.clear_cache ();
        (* heap state inherited from earlier scenarios otherwise dominates
           the small ones: a major slice landing inside a 3 ms scenario
           reads as a 2x swing. [Gc.compact] first, so every run starts
           from the same GC phase. *)
        Gc.compact ();
        self_timed := None;
        self_extra := [];
        let t0 = Wfc_obs.Metrics.now_s () in
        let nodes, verdict = thunk () in
        let external_s = Wfc_obs.Metrics.now_s () -. t0 in
        let seconds = match !self_timed with Some s -> s | None -> external_s in
        (seconds, nodes, verdict, !self_extra)
      in
      let samples = List.sort compare (List.init runs (fun _ -> run ())) in
      (match List.sort_uniq compare (List.map (fun (_, nodes, _, _) -> nodes) samples) with
      | [ _ ] -> ()
      | _ ->
        Printf.eprintf "bench: %s: search node counts differ between runs\n" sname;
        exit 1);
      let seconds, nodes, verdict, extra = List.nth samples (runs / 2) in
      let min_s, _, _, _ = List.hd samples and max_s, _, _, _ = List.nth samples (runs - 1) in
      Printf.printf "%-36s %12.4f %12.4f %12.4f %12s\n%!" sname seconds min_s max_s
        (match nodes with Some n -> string_of_int n | None -> "-");
      let spread =
        if runs = 1 then []
        else
          [
            ("runs", Wfc_obs.Json.Int runs);
            ("seconds_min", Wfc_obs.Json.Float min_s);
            ("seconds_max", Wfc_obs.Json.Float max_s);
          ]
      in
      Wfc_obs.Report.scenario ?nodes ?verdict ~extra:(extra @ spread) sname seconds)
    selected

let write_json file results =
  Wfc_obs.Report.write_file file
    (Wfc_obs.Report.to_json
       ~machine:(Wfc_obs.Report.machine_facts ())
       ~snapshot:(Wfc_obs.Snapshot.take ())
       results);
  Printf.printf "\nwrote %s\n" file

let usage = "usage: main.exe [quick | --quick] [--experiments] [--json FILE] [--only SUBS]"

let () =
  let fail msg =
    prerr_endline ("bench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (* --only SUBS (comma-separated substrings) restricts the timed scenarios
     to names containing any of them, and skips the experiments — for
     iterating on one scenario family without paying for the whole suite *)
  let quick = ref false and force_experiments = ref false in
  let json_file = ref None and only = ref None in
  let rec parse = function
    | [] -> ()
    | ("quick" | "--quick") :: rest ->
      quick := true;
      parse rest
    | "--experiments" :: rest ->
      force_experiments := true;
      parse rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | "--only" :: sub :: rest ->
      only := Some sub;
      parse rest
    | [ "--json" ] -> fail "--json requires a FILE argument"
    | [ "--only" ] -> fail "--only requires a SUBSTRING argument"
    | arg :: _ -> fail ("unknown argument: " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick and json_file = !json_file and only = !only in
  quick_scenarios := quick;
  let experiments = (json_file = None && only = None) || !force_experiments in
  if experiments then begin
    e1 ();
    e2 ();
    e3_e4 ();
    e5 ();
    e6 ();
    e7 ();
    e8 ();
    e9 ();
    e10 ();
    e11 ();
    e12 ();
    e13 ();
    e14 ();
    e15 ();
    e16 ()
  end;
  (match (json_file, only) with
  | Some file, _ -> write_json file (run_scenarios ?only ~runs:5 ())
  | None, Some _ -> ignore (run_scenarios ?only ~runs:1 ())
  | None, None -> ());
  if (not quick) && json_file = None && only = None then micro ();
  print_endline "\nall experiments complete."
