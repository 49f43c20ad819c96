(* Tests for the storage engine: LRU mechanics, record round-trips, the
   tree as the store's only index, quarantine-on-damage, concurrent
   writers, and persisted SDS skeletons replaying bit-for-bit. *)

open Wfc_core
open Wfc_storage
open Wfc_topology

let checkb = Alcotest.check Alcotest.bool

let checki = Alcotest.check Alcotest.int

let checks = Alcotest.check Alcotest.string

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let counter_value name = Wfc_obs.Metrics.value (Wfc_obs.Metrics.counter name)

(* A deterministic record family: every field a function of the seed, so
   qcheck shrinks meaningfully and failures reproduce. *)
let record_of_params ~seed ~kind ~ndecide ~level =
  let seed = abs seed and kind = abs kind and ndecide = abs ndecide and level = abs level in
  let digest = Digest.to_hex (Digest.string (Printf.sprintf "test-record-%d" seed)) in
  let verdict =
    match kind mod 3 with 0 -> "solvable" | 1 -> "unsolvable" | _ -> "exhausted"
  in
  let decide =
    if verdict = "solvable" then
      List.init (1 + (ndecide mod 64)) (fun v -> (v * (1 + (seed mod 5)), v mod 3))
    else []
  in
  {
    Record.digest;
    task = Printf.sprintf "t%d(procs=2,param=2)" seed;
    model = (if seed mod 2 = 0 then "wait-free" else "k-set:2");
    procs = 2 + (seed mod 3);
    max_level = level mod 4;
    budget = 1 + (abs seed mod 1000) * 997;
    outcome =
      {
        Solvability.o_verdict = verdict;
        o_level = level mod 4;
        o_nodes = abs seed mod 100_000;
        o_backtracks = abs seed mod 777;
        o_prunes = abs seed mod 333;
        o_elapsed = float_of_int (abs seed mod 10_000) /. 7.;
        o_decide = decide;
      };
    created_at = float_of_int (abs seed mod 1_000_000) /. 3.;
  }

(* ------------------------------------------------------------------ *)
(* LRU                                                                  *)
(* ------------------------------------------------------------------ *)

let lru_tests =
  [
    Alcotest.test_case "eviction follows recency, find refreshes" `Quick (fun () ->
        let evicted = ref [] in
        let l = Lru.create 3 ~on_evict:(fun k _ -> evicted := k :: !evicted) in
        Lru.put l "a" 1;
        Lru.put l "b" 2;
        Lru.put l "c" 3;
        (* touch [a]: [b] becomes the coldest *)
        checkb "hit" true (Lru.find l "a" = Some 1);
        Lru.put l "d" 4;
        checks "b evicted first" "b" (String.concat "," !evicted);
        checkb "a survived its refresh" true (Lru.mem l "a");
        Lru.put l "e" 5;
        checks "then c" "c,b" (String.concat "," !evicted);
        checks "warmest first" "e,d,a" (String.concat "," (Lru.keys_mru_first l));
        checki "bounded" 3 (Lru.size l));
    Alcotest.test_case "overwrite refreshes without growing" `Quick (fun () ->
        let l = Lru.create 2 in
        Lru.put l "a" 1;
        Lru.put l "b" 2;
        Lru.put l "a" 10;
        checki "size" 2 (Lru.size l);
        checkb "new value" true (Lru.find l "a" = Some 10);
        Lru.put l "c" 3;
        (* [b] was coldest after the overwrite refreshed [a] *)
        checkb "b evicted" false (Lru.mem l "b");
        checkb "a stays" true (Lru.mem l "a"));
    Alcotest.test_case "remove and clear" `Quick (fun () ->
        let l = Lru.create 4 in
        Lru.put l "a" 1;
        Lru.put l "b" 2;
        Lru.remove l "a";
        checki "size after remove" 1 (Lru.size l);
        checkb "gone" true (Lru.find l "a" = None);
        Lru.clear l;
        checki "empty" 0 (Lru.size l);
        (* the list structure survives a clear *)
        Lru.put l "c" 3;
        checkb "usable after clear" true (Lru.find l "c" = Some 3));
  ]

(* ------------------------------------------------------------------ *)
(* Record JSON                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"json record round-trips exactly"
    QCheck.(quad int int int int)
    (fun (seed, kind, ndecide, level) ->
      let r = record_of_params ~seed ~kind ~ndecide ~level in
      Record.record_of_json (Record.record_to_json r) = Ok r)

(* A well-formed [wfc.store.v1] body: the v2 object of a wait-free record
   with the v1 tag and without the "model" key v1 predates. *)
let v1_body (r : Record.record) =
  match Record.record_to_json r with
  | Wfc_obs.Json.Obj fields ->
    Wfc_obs.Json.Obj
      (List.filter_map
         (function
           | "schema", _ -> Some ("schema", Wfc_obs.Json.String "wfc.store.v1")
           | "model", _ -> None
           | kv -> Some kv)
         fields)
  | _ -> assert false

let record_tests =
  [
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    Alcotest.test_case "v1 schema is untrusted input" `Quick (fun () ->
        (* an even seed makes a wait-free record, the only model v1 knew *)
        let r = record_of_params ~seed:40 ~kind:0 ~ndecide:3 ~level:1 in
        let body = v1_body r in
        (match Record.record_of_json body with
        | Ok _ -> Alcotest.fail "a wfc.store.v1 object must not decode"
        | Error e ->
          checks "error names the schema"
            {|schema "wfc.store.v1", expected "wfc.store.v2"|} e);
        (* the same body filed where a wait-free question reads *)
        let dir = temp_dir "wfc-engine" in
        let eng = Engine.open_store dir in
        let path =
          Engine.path_of eng ~digest:r.Record.digest ~model:"wait-free"
            ~max_level:r.Record.max_level
        in
        Layout.atomic_write path (Wfc_obs.Json.to_string body);
        let q0 = counter_value "serve.store.quarantined" in
        checkb "not served" true
          (Engine.find eng ~digest:r.Record.digest ~model:"wait-free"
             ~max_level:r.Record.max_level ~budget:r.Record.budget
          = None);
        checkb "moved off the serving path" false (Sys.file_exists path);
        checki "quarantined" 1 (counter_value "serve.store.quarantined" - q0);
        checki "in the quarantine pen" 1 (Engine.verify eng).Engine.quarantined);
  ]

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "cache tier: hits skip the disk, eviction is counted" `Quick
      (fun () ->
        let dir = temp_dir "wfc-engine" in
        let eng = Engine.open_store ~cache_cap:2 dir in
        let r1 = record_of_params ~seed:1 ~kind:1 ~ndecide:0 ~level:1 in
        let r2 = record_of_params ~seed:3 ~kind:1 ~ndecide:0 ~level:1 in
        let r3 = record_of_params ~seed:5 ~kind:1 ~ndecide:0 ~level:1 in
        let hits0 = counter_value "storage.cache.hit" in
        let evict0 = counter_value "storage.cache.evict" in
        Engine.put eng r1;
        Engine.put eng r2;
        let find (r : Record.record) =
          Engine.find eng ~digest:r.Record.digest ~model:r.Record.model
            ~max_level:r.Record.max_level ~budget:r.Record.budget
        in
        (* warm: both live in the cache from their puts *)
        checkb "r1 warm" true (find r1 <> None);
        checkb "r2 warm" true (find r2 <> None);
        checki "two cache hits" 2 (counter_value "storage.cache.hit" - hits0);
        (* a third put overflows cap=2 *)
        Engine.put eng r3;
        checki "one eviction" 1 (counter_value "storage.cache.evict" - evict0);
        checki "cache bounded" 2 (List.length (Engine.cache_keys eng));
        (* the evicted record still answers — from disk *)
        let reads0 = counter_value "serve.store.reads" in
        checkb "evicted record still found" true (find r1 <> None);
        checkb "that lookup hit the disk" true (counter_value "serve.store.reads" > reads0));
    Alcotest.test_case "truncated record: quarantine moves it off the serving path" `Quick
      (fun () ->
        let dir = temp_dir "wfc-engine" in
        let eng = Engine.open_store dir in
        let r = record_of_params ~seed:11 ~kind:0 ~ndecide:5 ~level:1 in
        Engine.put eng r;
        let path =
          Engine.path_of eng ~digest:r.Record.digest ~model:r.Record.model
            ~max_level:r.Record.max_level
        in
        (* cut mid-byte, as only a non-atomic writer could *)
        let full = In_channel.with_open_bin path In_channel.input_all in
        let oc = open_out_bin path in
        output_string oc (String.sub full 0 (String.length full / 2));
        close_out oc;
        let cold = Engine.open_store dir in
        checkb "miss" true
          (Engine.find cold ~digest:r.Record.digest ~model:r.Record.model
             ~max_level:r.Record.max_level ~budget:r.Record.budget
          = None);
        checkb "moved aside" false (Sys.file_exists path);
        let v = Engine.verify cold in
        checki "quarantined" 1 v.Engine.quarantined;
        checki "corrupt in place" 0 (List.length v.Engine.corrupt));
    Alcotest.test_case "crash-orphaned temp files: reported by verify, reaped by gc" `Quick
      (fun () ->
        let dir = temp_dir "wfc-engine" in
        let eng = Engine.open_store dir in
        Engine.seed eng ~count:3;
        (* the shape an interrupted atomic write leaves, deep in a shard —
           named *.json.<pid>.<n>.wtmp precisely so no scan can read it as a
           record (the old flat store suffix-matched .json and could) *)
        let shard = Filename.concat dir "ab/cd" in
        Layout.mkdir_p shard;
        let stray = Filename.concat shard "deadbeef.wait-free.L1.json.999.0.wtmp" in
        let oc = open_out stray in
        output_string oc "{\"schema\": \"wfc.st";
        close_out oc;
        let v = Engine.verify eng in
        checki "stray temp reported" 1 v.Engine.stray_tmp;
        checki "not read as a record" 0 (List.length v.Engine.corrupt);
        let removed = ref 0 in
        Engine.gc eng ~removed;
        checki "reaped" 1 !removed;
        checkb "gone" false (Sys.file_exists stray);
        let v = Engine.verify eng in
        checki "clean" 0 v.Engine.stray_tmp;
        checki "records untouched" 3 v.Engine.valid);
    Alcotest.test_case "concurrent puts on one key from two domains" `Quick (fun () ->
        let dir = temp_dir "wfc-engine" in
        let eng = Engine.open_store dir in
        let mk nodes =
          let r = record_of_params ~seed:21 ~kind:1 ~ndecide:0 ~level:1 in
          { r with Record.outcome = { r.Record.outcome with Solvability.o_nodes = nodes } }
        in
        let racer lo =
          Domain.spawn (fun () -> for i = lo to lo + 39 do Engine.put eng (mk i) done)
        in
        let d1 = racer 0 and d2 = racer 1000 in
        Domain.join d1;
        Domain.join d2;
        let r = mk 0 in
        (* whoever won, the stored record is whole and answers the question *)
        (match
           Engine.find eng ~digest:r.Record.digest ~model:r.Record.model
             ~max_level:r.Record.max_level ~budget:r.Record.budget
         with
        | None -> Alcotest.fail "record lost in the race"
        | Some r' ->
          checks "same verdict bytes"
            (Wfc_obs.Json.to_string (Record.verdict_json r))
            (Wfc_obs.Json.to_string (Record.verdict_json r')));
        let v = Engine.verify eng in
        checki "one whole record" 1 v.Engine.valid;
        checki "no torn files" 0 (List.length v.Engine.corrupt));
    Alcotest.test_case "ls is deterministic and sorted" `Quick (fun () ->
        let dir = temp_dir "wfc-engine" in
        let eng = Engine.open_store dir in
        Engine.seed eng ~count:12;
        let rels () = List.map fst (Engine.ls eng).Engine.records in
        let a = rels () in
        checkb "sorted" true (a = List.sort compare a);
        checkb "stable across calls" true (a = rels ()));
    Alcotest.test_case "the tree is the index: a leftover MANIFEST.jsonl is inert" `Quick
      (fun () ->
        let dir = temp_dir "wfc-engine" in
        let eng = Engine.open_store dir in
        let r1 = record_of_params ~seed:31 ~kind:0 ~ndecide:4 ~level:1 in
        let r2 = record_of_params ~seed:32 ~kind:1 ~ndecide:0 ~level:2 in
        Engine.put eng r1;
        Engine.put eng r2;
        (* the index file an older build kept at the root, torn line and all *)
        Out_channel.with_open_bin (Filename.concat dir "MANIFEST.jsonl") (fun oc ->
            output_string oc "{\"schema\": \"wfc.manifest.v1\", \"op\": \"put\"}\n{\"torn");
        let rel (r : Record.record) =
          Layout.verdict_rel ~digest:r.Record.digest ~model:r.Record.model
            ~max_level:r.Record.max_level
        in
        let body r = Wfc_obs.Json.to_string (Record.record_to_json r) in
        let by_rel = List.sort (fun a b -> compare (rel a) (rel b)) [ r1; r2 ] in
        let { Engine.records; skeletons } = Engine.ls eng in
        checks "exactly the two records, sorted"
          (String.concat "," (List.map rel by_rel))
          (String.concat "," (List.map fst records));
        checks "decoded bodies"
          (String.concat "," (List.map body by_rel))
          (String.concat "," (List.map (fun (_, r) -> body r) records));
        checki "no skeletons" 0 skeletons;
        let v = Engine.verify eng in
        checki "both valid" 2 v.Engine.valid;
        checki "nothing corrupt" 0 (List.length v.Engine.corrupt);
        checki "nothing misfiled" 0 (List.length v.Engine.mismatched);
        let cold = Engine.open_store dir in
        List.iter
          (fun (r : Record.record) ->
            match
              Engine.find cold ~digest:r.Record.digest ~model:r.Record.model
                ~max_level:r.Record.max_level ~budget:r.Record.budget
            with
            | None -> Alcotest.fail "record not served"
            | Some r' -> checks "served bytes" (body r) (body r'))
          [ r1; r2 ];
        (* one durable file per put, nothing beside it in its shard *)
        let shard r = Filename.dirname (rel r) in
        let in_shards =
          List.sort_uniq compare [ shard r1; shard r2 ]
          |> List.concat_map (fun d ->
                 List.map (Filename.concat d)
                   (Array.to_list (Sys.readdir (Filename.concat dir d))))
        in
        checks "shard contents"
          (String.concat "," (List.map rel by_rel))
          (String.concat "," (List.sort compare in_shards)));
  ]

(* ------------------------------------------------------------------ *)
(* Persisted SDS skeletons                                              *)
(* ------------------------------------------------------------------ *)

let skeleton_tests =
  [
    Alcotest.test_case "cold iterate replays persisted skeletons bit-for-bit" `Quick
      (fun () ->
        let dir = temp_dir "wfc-skel" in
        let eng = Engine.open_store dir in
        Sds.set_skeleton_store
          (Some
             {
               Sds.load = (fun ~digest ~level -> Engine.find_skeleton eng ~digest ~level);
               save =
                 (fun ~digest ~level data ->
                   Engine.put_skeleton eng ~digest ~level data);
             });
        Fun.protect
          ~finally:(fun () -> Sds.set_skeleton_store None)
          (fun () ->
            Sds.clear_cache ();
            let misses0 = counter_value "sds.skeleton.misses" in
            let hits0 = counter_value "sds.skeleton.hits" in
            let warm = Sds.standard ~dim:2 ~levels:2 in
            checki "first build enumerates and saves" 2
              (counter_value "sds.skeleton.misses" - misses0);
            (* a "new process": no memo, same store *)
            Sds.clear_cache ();
            let cold = Sds.standard ~dim:2 ~levels:2 in
            checki "both levels replayed" 2 (counter_value "sds.skeleton.hits" - hits0);
            checks "structurally identical complex"
              (Sds.structural_digest (Sds.complex warm))
              (Sds.structural_digest (Sds.complex cold));
            checki "same facet count"
              (List.length (Complex.facets (Chromatic.complex (Sds.complex warm))))
              (List.length (Complex.facets (Chromatic.complex (Sds.complex cold))));
            (* a corrupted artifact must fall back to enumeration, silently *)
            let skel_digest =
              Sds.structural_digest (Chromatic.standard_simplex 2)
            in
            Engine.put_skeleton eng ~digest:skel_digest ~level:1
              "{\"not\": \"a skeleton\"}";
            Sds.clear_cache ();
            let m0 = counter_value "sds.skeleton.misses" in
            let again = Sds.standard ~dim:2 ~levels:1 in
            checkb "fell back to a fresh subdivision" true
              (counter_value "sds.skeleton.misses" - m0 >= 1);
            checks "and produced the right complex"
              (Sds.structural_digest (Sds.complex warm))
              (Sds.structural_digest (Sds.complex (Sds.subdivide again)))));
  ]

let () =
  Alcotest.run "wfc_storage"
    [
      ("lru", lru_tests);
      ("record", record_tests);
      ("engine", engine_tests);
      ("skeleton", skeleton_tests);
    ]
