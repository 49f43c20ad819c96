(* Tier-1 tests for first-class computation models (affine tasks): the
   Model codec and built-ins, the model-restricted solvability search and
   its wait-free byte-identity guarantee, the (task, model)-keyed v2
   verdict store (flat and v1 names not read), the model field of the
   wire protocol, the explicit options record, and the daemon serving two
   models for one task end to end. *)

open Wfc_topology
open Wfc_tasks
open Wfc_core
open Wfc_serve
open Wfc_storage

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(* ------------------------------------------------------------------ *)
(* Model codec and built-ins                                            *)
(* ------------------------------------------------------------------ *)

let roundtrip m =
  match Model.of_string (Model.to_string m) with
  | Ok m' ->
    checks "canonical name survives parsing" (Model.to_string m) (Model.to_string m');
    checkb "round-trip is equal" true (Model.equal m m')
  | Error e -> Alcotest.fail e

let test_model_codec () =
  roundtrip Model.wait_free;
  roundtrip (Model.t_resilient ~t:0);
  roundtrip (Model.t_resilient ~t:3);
  roundtrip (Model.k_set_affine ~k:1);
  roundtrip (Model.k_set_affine ~k:2);
  checks "wait-free name" "wait-free" (Model.to_string Model.wait_free);
  checks "k-set name" "k-set:2" (Model.to_string (Model.k_set_affine ~k:2));
  checks "t-resilient name" "t-resilient:1" (Model.to_string (Model.t_resilient ~t:1));
  checks "slug is filename-safe" "k-set-2" (Model.slug_of_name "k-set:2");
  checks "slug of wait-free" "wait-free" (Model.slug_of_name "wait-free");
  checks "slug_of_name" "t-resilient-1" (Model.slug_of_name "t-resilient:1");
  checks "family drops the parameter" "k-set" (Model.family (Model.k_set_affine ~k:7));
  checks "family of t-resilient" "t-resilient" (Model.family (Model.t_resilient ~t:2));
  checks "family of wait-free" "wait-free" (Model.family Model.wait_free);
  List.iter
    (fun bad ->
      checkb (Printf.sprintf "%S is rejected" bad) true
        (Result.is_error (Model.of_string bad)))
    [ ""; "nope"; "k-set:"; "k-set:0"; "k-set:x"; "t-resilient:-1"; "t-resilient:two"; "wait-free:1" ];
  checkb "builtins documented" true (List.length Model.builtins >= 3)

let test_model_guards () =
  Alcotest.check_raises "k < 1" (Invalid_argument "Model.k_set_affine: k must be >= 1")
    (fun () -> ignore (Model.k_set_affine ~k:0));
  Alcotest.check_raises "t < 0" (Invalid_argument "Model.t_resilient: t must be >= 0")
    (fun () -> ignore (Model.t_resilient ~t:(-1)))

(* ------------------------------------------------------------------ *)
(* Restricted solving                                                   *)
(* ------------------------------------------------------------------ *)

let solve_m model task level =
  Solvability.solve_at ~opts:(Solvability.options ~model ()) task level

(* Full decision table over the whole subdivision — valid only for models
   that admit every facet (wait-free and its equivalents). *)
let decide_table verdict =
  match verdict with
  | Solvability.Solvable { map; _ } ->
    let scx = Chromatic.complex (Sds.complex map.Solvability.sds) in
    Some (List.map (fun v -> (v, map.Solvability.decide v)) (Complex.vertices scx))
  | _ -> None

let tasks_under_test =
  [
    ("consensus-2", fun () -> Instances.binary_consensus ~procs:2);
    ("consensus-3", fun () -> Instances.binary_consensus ~procs:3);
    ("set-consensus-3-2", fun () -> Instances.set_consensus ~procs:3 ~k:2);
    ("identity-3", fun () -> Instances.id_task ~procs:3);
    ("approx-2-3", fun () -> Instances.approximate_agreement ~procs:2 ~grid:3);
  ]

(* The acceptance pair: k-set:1 is wait-free, k-set:procs admits only the
   fully synchronous runs, under which consensus becomes solvable. *)
let test_kset_consensus () =
  List.iter
    (fun procs ->
      let t () = Instances.binary_consensus ~procs in
      (match solve_m (Model.k_set_affine ~k:1) (t ()) 1 with
      | Solvability.Unsolvable_at _ -> ()
      | v ->
        Alcotest.failf "consensus-%d under k-set:1 must stay unsolvable, got %s" procs
          (Solvability.verdict_name v));
      match solve_m (Model.k_set_affine ~k:procs) (t ()) 1 with
      | Solvability.Solvable { map; _ } ->
        (match Solvability.verify map with
        | Ok () -> ()
        | Error e -> Alcotest.failf "restricted map fails verify: %s" e);
        checkb "map remembers its model" true
          (Model.equal map.Solvability.model (Model.k_set_affine ~k:procs))
      | v ->
        Alcotest.failf "consensus-%d under k-set:%d must be solvable at level 1, got %s"
          procs procs (Solvability.verdict_name v))
    [ 2; 3 ]

let test_t_resilient_consensus () =
  (* t = 0: only lock-step runs remain, so consensus is solvable... *)
  (match solve_m (Model.t_resilient ~t:0) (Instances.binary_consensus ~procs:3) 1 with
  | Solvability.Solvable { map; _ } ->
    (match Solvability.verify map with
    | Ok () -> ()
    | Error e -> Alcotest.failf "t-resilient:0 map fails verify: %s" e)
  | v ->
    Alcotest.failf "consensus-3 under t-resilient:0 must be solvable, got %s"
      (Solvability.verdict_name v));
  (* ...while t >= procs - 1 admits every run and is wait-free again. *)
  let wf = Solvability.solve_at (Instances.binary_consensus ~procs:2) 1 in
  let tr = solve_m (Model.t_resilient ~t:1) (Instances.binary_consensus ~procs:2) 1 in
  checks "t-resilient:(procs-1) = wait-free verdict" (Solvability.verdict_name wf)
    (Solvability.verdict_name tr);
  let s = Solvability.stats_of_verdict wf and s' = Solvability.stats_of_verdict tr in
  checki "identical refutation cost" s.Solvability.nodes s'.Solvability.nodes

(* k-set:1 goes through the Per_round path yet admits every facet: the
   filtered instance is the unrestricted one in the same order, so even the
   search-cost tallies must match the seed engine exactly. *)
let test_kset1_byte_identity () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun level ->
          let seed = Solvability.solve_at (mk ()) level in
          let k1 = solve_m (Model.k_set_affine ~k:1) (mk ()) level in
          checks
            (Printf.sprintf "%s level %d: verdict" name level)
            (Solvability.verdict_name seed) (Solvability.verdict_name k1);
          checkb
            (Printf.sprintf "%s level %d: decide table" name level)
            true
            (decide_table seed = decide_table k1);
          let s = Solvability.stats_of_verdict seed in
          let s' = Solvability.stats_of_verdict k1 in
          checki (name ^ ": nodes") s.Solvability.nodes s'.Solvability.nodes;
          checki (name ^ ": backtracks") s.Solvability.backtracks s'.Solvability.backtracks;
          checki (name ^ ": prunes") s.Solvability.prunes s'.Solvability.prunes)
        [ 0; 1 ])
    tasks_under_test

(* The headline guarantee of the API redesign: passing the wait-free model
   explicitly answers exactly like the historical default-everything call. *)
let qcheck_wait_free_is_seed =
  QCheck.Test.make ~count:40 ~name:"solve_at ~model:wait_free = seed engine"
    QCheck.(pair (int_bound (List.length tasks_under_test - 1)) (int_bound 1))
    (fun (ti, level) ->
      let _, mk = List.nth tasks_under_test ti in
      let seed = Solvability.solve_at (mk ()) level in
      let wf = solve_m Model.wait_free (mk ()) level in
      Solvability.verdict_name seed = Solvability.verdict_name wf
      && decide_table seed = decide_table wf)

let qcheck_wait_free_solve_sweep =
  QCheck.Test.make ~count:20 ~name:"solve ~model:wait_free = seed sweep (decide tables)"
    QCheck.(int_bound (List.length tasks_under_test - 1))
    (fun ti ->
      let _, mk = List.nth tasks_under_test ti in
      let seed = Solvability.solve ~max_level:1 (mk ()) in
      let wf =
        Solvability.solve ~opts:(Solvability.options ~model:Model.wait_free ()) ~max_level:1 (mk ())
      in
      Solvability.verdict_name seed = Solvability.verdict_name wf
      && decide_table seed = decide_table wf)

let test_per_model_counter () =
  let name = "solvability.model.k-set" in
  let before = Wfc_obs.Metrics.value (Wfc_obs.Metrics.counter name) in
  ignore (solve_m (Model.k_set_affine ~k:3) (Instances.binary_consensus ~procs:2) 0);
  let after = Wfc_obs.Metrics.value (Wfc_obs.Metrics.counter name) in
  checki "model counter bumped" (before + 1) after

(* ------------------------------------------------------------------ *)
(* Options record                                                       *)
(* ------------------------------------------------------------------ *)

let test_options () =
  let d = Solvability.defaults in
  checkb "default model is wait-free" true (Model.equal d.Solvability.model Model.wait_free);
  checki "default budget" Solvability.default_budget d.Solvability.budget;
  checkb "default trace off" false d.Solvability.trace;
  checkb "default symmetry on" true d.Solvability.symmetry;
  checkb "default collapse on" true d.Solvability.collapse;
  (* the builder fills omitted fields from the defaults *)
  let o = Solvability.options ~budget:7 () in
  checki "builder overrides budget" 7 o.Solvability.budget;
  checkb "builder inherits the rest" true (o = { d with Solvability.budget = 7 });
  checkb "empty builder is the defaults" true (Solvability.options () = d)

(* ------------------------------------------------------------------ *)
(* Store: (task, model) keyed records, flat names not read               *)
(* ------------------------------------------------------------------ *)

let outcome_for ?(model = Model.wait_free) task =
  Solvability.outcome_of_verdict
    (Solvability.solve ~opts:(Solvability.options ~model ()) ~max_level:1 task)

let test_store_model_key () =
  let st = Engine.open_store (temp_dir "wfc-affine-store") in
  let t = Instances.binary_consensus ~procs:2 in
  let digest = Task.digest t in
  let budget = Solvability.default_budget in
  let model = Model.k_set_affine ~k:2 in
  let r =
    Record.make ~task:t ~spec:"consensus(procs=2,param=2)"
      ~model:(Model.to_string model) ~max_level:1 ~budget (outcome_for ~model t)
  in
  Engine.put st r;
  checks "v2 filename embeds the model slug"
    (digest ^ ".k-set-2.L1.json")
    (Filename.basename (Engine.path_of st ~digest ~model:"k-set:2" ~max_level:1));
  (match Engine.find st ~digest ~model:"k-set:2" ~max_level:1 ~budget with
  | Some r' ->
    checks "record carries its model" "k-set:2" r'.Record.model;
    checks "restricted verdict survives the disk" "solvable" r'.Record.outcome.Solvability.o_verdict
  | None -> Alcotest.fail "k-set:2 record not found after put");
  (* the same task under another model is a different question *)
  checkb "wait-free misses" true
    (Engine.find st ~digest ~model:"wait-free" ~max_level:1 ~budget = None);
  let report = Engine.verify st in
  checki "v2 record passes verify" 1 report.Engine.valid;
  checki "nothing mismatched" 0 (List.length report.Engine.mismatched)

let test_store_flat_names_not_read () =
  let dir = temp_dir "wfc-affine-store" in
  let st = Engine.open_store dir in
  let t = Instances.binary_consensus ~procs:2 in
  let digest = Task.digest t in
  let budget = Solvability.default_budget in
  let r =
    Record.make ~task:t ~spec:"consensus(procs=2,param=2)" ~max_level:1 ~budget (outcome_for t)
  in
  Engine.put st r;
  (* copy the sharded record to the two names pre-sharding stores used at
     the root: flat v2 ([<digest>.wait-free.L1.json]) and pre-model v1
     ([<digest>.L1.json]) *)
  let sharded = Engine.path_of st ~digest ~model:"wait-free" ~max_level:1 in
  let body = In_channel.with_open_bin sharded In_channel.input_all in
  let flat_v2 = Filename.concat dir (Filename.basename sharded) in
  let flat_v1 = Filename.concat dir (digest ^ ".L1.json") in
  List.iter
    (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc body))
    [ flat_v2; flat_v1 ];
  (* a fresh handle, so no answer can come from the put's LRU entry *)
  let find () =
    Engine.find (Engine.open_store dir) ~digest ~model:"wait-free" ~max_level:1 ~budget
  in
  Sys.rename sharded (sharded ^ ".aside");
  checkb "neither flat name is served" true (find () = None);
  checkb "the miss leaves the flat v2 file" true (Sys.file_exists flat_v2);
  checkb "the miss leaves the flat v1 file" true (Sys.file_exists flat_v1);
  Sys.rename (sharded ^ ".aside") sharded;
  (match find () with
  | Some r' ->
    checks "the sharded record still answers"
      (Wfc_obs.Json.to_string (Record.verdict_json r))
      (Wfc_obs.Json.to_string (Record.verdict_json r'))
  | None -> Alcotest.fail "sharded record must answer its question");
  let report = Engine.verify st in
  checki "only the sharded record is valid" 1 report.Engine.valid;
  checks "both flat names are mismatched"
    (String.concat ","
       (List.sort compare (List.map Filename.basename [ flat_v2; flat_v1 ])))
    (String.concat "," (List.sort compare report.Engine.mismatched))

let test_store_model_mismatch_quarantined () =
  let dir = temp_dir "wfc-affine-store" in
  let st = Engine.open_store dir in
  let t = Instances.binary_consensus ~procs:2 in
  let digest = Task.digest t in
  let budget = Solvability.default_budget in
  let model = Model.k_set_affine ~k:2 in
  let r =
    Record.make ~task:t ~spec:"consensus(procs=2,param=2)"
      ~model:(Model.to_string model) ~max_level:1 ~budget (outcome_for ~model t)
  in
  (* file a k-set:2 body under the sharded wait-free path (as a bad actor
     or a botched copy would): served to a wait-free question it would be a
     wrong answer, so find must quarantine it *)
  let path = Engine.path_of st ~digest ~model:"wait-free" ~max_level:1 in
  Wfc_storage.Layout.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc (Wfc_obs.Json.to_string (Record.record_to_json r));
  close_out oc;
  checkb "mismatched model is a miss" true
    (Engine.find st ~digest ~model:"wait-free" ~max_level:1 ~budget = None);
  checkb "file moved out of the way" false (Sys.file_exists path);
  checki "moved into quarantine" 1 (Engine.verify st).Engine.quarantined

(* ------------------------------------------------------------------ *)
(* Wire: the model field                                                *)
(* ------------------------------------------------------------------ *)

let test_wire_model () =
  let spec =
    {
      Wire.task = "consensus";
      procs = 2;
      param = 2;
      max_level = 1;
      model = "k-set:2";
      symmetry = true;
      collapse = true;
    }
  in
  (match Wire.request_of_json (Wire.request_to_json (Wire.Query { spec; req_id = None })) with
  | Ok (Wire.Query { spec = spec'; _ }) ->
    checks "model survives the wire" "k-set:2" spec'.Wire.model
  | Ok _ -> Alcotest.fail "expected a query"
  | Error e -> Alcotest.fail e);
  (* a pre-model client omits the field entirely: read as wait-free *)
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
  (match Wire.request_of_json legacy with
  | Ok (Wire.Query { spec = spec'; _ }) ->
    checks "missing model defaults" "wait-free" spec'.Wire.model
  | Ok _ -> Alcotest.fail "expected a query"
  | Error e -> Alcotest.fail e);
  let with_model m =
    Wfc_obs.Json.Obj
      [
        ("op", Wfc_obs.Json.String "query");
        ("task", Wfc_obs.Json.String "consensus");
        ("procs", Wfc_obs.Json.Int 2);
        ("param", Wfc_obs.Json.Int 2);
        ("max_level", Wfc_obs.Json.Int 1);
        ("model", m);
      ]
  in
  checkb "empty model is rejected" true
    (Result.is_error (Wire.request_of_json (with_model (Wfc_obs.Json.String ""))));
  checkb "non-string model is rejected" true
    (Result.is_error (Wire.request_of_json (with_model (Wfc_obs.Json.Int 3))))

(* ------------------------------------------------------------------ *)
(* Daemon: one task, two models, end to end                             *)
(* ------------------------------------------------------------------ *)

let temp_socket () =
  let path = Filename.temp_file "wfc-affine" ".sock" in
  Sys.remove path;
  path

let with_daemon f =
  let socket = temp_socket () in
  let store_dir = temp_dir "wfc-affine-daemon" in
  let ready = Atomic.make false in
  let cfg =
    {
      (Daemon.config ~socket ~store_dir ()) with
      Daemon.on_ready = Some (fun () -> Atomic.set ready true);
    }
  in
  let daemon = Thread.create Daemon.run cfg in
  while not (Atomic.get ready) do
    Thread.yield ()
  done;
  let finally () =
    (match Client.connect ~socket with
    | Ok c ->
      ignore (Client.shutdown c);
      Client.close c
    | Error _ -> ());
    Thread.join daemon
  in
  Fun.protect ~finally (fun () -> f ~socket)

let query_exn c spec =
  match Client.query c spec with Ok r -> r | Error e -> Alcotest.fail e

let test_daemon_two_models () =
  (* consensus(2) at level 1 is the acceptance pair: unsolvable wait-free,
     solvable once k-set:2 restricts the adversary to lock-step runs. *)
  let spec model =
    {
      Wire.task = "consensus";
      procs = 2;
      param = 2;
      max_level = 1;
      model;
      symmetry = true;
      collapse = true;
    }
  in
  with_daemon (fun ~socket ->
      match Client.connect ~socket with
      | Error e -> Alcotest.fail e
      | Ok c ->
        (match query_exn c (spec "wait-free") with
        | Wire.Verdict { source = Wire.Computed; record; _ } ->
          checks "wait-free verdict" "unsolvable" record.Record.outcome.Solvability.o_verdict;
          checks "record model" "wait-free" record.Record.model
        | _ -> Alcotest.fail "expected a computed wait-free verdict");
        (match query_exn c (spec "k-set:2") with
        | Wire.Verdict { source = Wire.Computed; record; _ } ->
          checks "k-set:2 verdict" "solvable" record.Record.outcome.Solvability.o_verdict;
          checks "record model" "k-set:2" record.Record.model
        | _ -> Alcotest.fail "expected a computed k-set:2 verdict");
        (* both verdicts now coexist in one store, each keyed by its model *)
        (match query_exn c (spec "wait-free") with
        | Wire.Verdict { source = Wire.From_store; record; _ } ->
          checks "warm wait-free" "unsolvable" record.Record.outcome.Solvability.o_verdict
        | _ -> Alcotest.fail "expected a wait-free store hit");
        (match query_exn c (spec "k-set:2") with
        | Wire.Verdict { source = Wire.From_store; record; _ } ->
          checks "warm k-set:2" "solvable" record.Record.outcome.Solvability.o_verdict
        | _ -> Alcotest.fail "expected a k-set:2 store hit");
        (* an unparsable model is refused at admission, before any solving *)
        (match query_exn c (spec "no-such-model") with
        | Wire.Failed _ -> ()
        | _ -> Alcotest.fail "expected an error for an unknown model");
        Client.close c)

let () =
  Alcotest.run "wfc_affine"
    [
      ( "model",
        [
          Alcotest.test_case "codec round-trips and rejects" `Quick test_model_codec;
          Alcotest.test_case "constructor guards" `Quick test_model_guards;
        ] );
      ( "restriction",
        [
          Alcotest.test_case "k-set bounds consensus" `Quick test_kset_consensus;
          Alcotest.test_case "t-resilience bounds consensus" `Quick test_t_resilient_consensus;
          Alcotest.test_case "k-set:1 is byte-identical to seed" `Quick test_kset1_byte_identity;
          QCheck_alcotest.to_alcotest qcheck_wait_free_is_seed;
          QCheck_alcotest.to_alcotest qcheck_wait_free_solve_sweep;
          Alcotest.test_case "per-model counter" `Quick test_per_model_counter;
        ] );
      ("options", [ Alcotest.test_case "record, defaults, builder" `Quick test_options ]);
      ( "store",
        [
          Alcotest.test_case "records are keyed by model" `Quick test_store_model_key;
          Alcotest.test_case "flat v1 and v2 names are not read" `Quick
            test_store_flat_names_not_read;
          Alcotest.test_case "model mismatch is quarantined" `Quick
            test_store_model_mismatch_quarantined;
        ] );
      ("wire", [ Alcotest.test_case "model field codec" `Quick test_wire_model ]);
      ("daemon", [ Alcotest.test_case "two models end to end" `Quick test_daemon_two_models ]);
    ]
