(* Tier-1 tests for the Wfc_obs observability layer: counter monotonicity,
   reset semantics, span-tree well-formedness, JSON round-tripping, the
   report schema validator, and the determinism guard tying identical
   seeded solver runs to identical counter deltas. *)

open Wfc_obs

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter_basics () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter.basics" in
  checki "fresh counter" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 41;
  checki "incr + add" 42 (Metrics.value c);
  checks "name" "test.counter.basics" (Metrics.counter_name c);
  let c' = Metrics.counter "test.counter.basics" in
  Metrics.incr c';
  checki "same name, same cell" 43 (Metrics.value c)

let test_counter_monotone () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter.monotone" in
  Metrics.add c 0;
  checki "add 0 is allowed" 0 (Metrics.value c);
  Alcotest.check_raises "negative delta rejected"
    (Invalid_argument "Metrics.add test.counter.monotone: negative delta -3")
    (fun () -> Metrics.add c (-3))

let test_reset_keeps_handles () =
  Metrics.reset ();
  let c = Metrics.counter "test.reset.counter" in
  let h = Metrics.histogram "test.reset.histo" in
  Metrics.add c 7;
  Metrics.observe h 1.5;
  Metrics.with_span "test.reset.span" (fun () -> ());
  Metrics.reset ();
  checki "counter zeroed" 0 (Metrics.value c);
  checkb "histograms cleared" true (Metrics.histograms_now () = []);
  checkb "spans cleared" true (Metrics.spans_now () = []);
  (* the old handle still feeds the registry after reset *)
  Metrics.incr c;
  checkb "handle valid after reset" true
    (List.assoc "test.reset.counter" (Metrics.counters_now ()) = 1)

let test_histogram_stats () =
  Metrics.reset ();
  let h = Metrics.histogram "test.histo.stats" in
  List.iter (Metrics.observe h) [ 2.0; 8.0; 5.0 ];
  match List.assoc_opt "test.histo.stats" (Metrics.histograms_now ()) with
  | None -> Alcotest.fail "histogram missing from read-out"
  | Some (s : Metrics.histo_stats) ->
    checki "count" 3 s.count;
    checkb "sum" true (abs_float (s.sum -. 15.0) < 1e-9);
    checkb "min" true (s.min = 2.0);
    checkb "max" true (s.max = 8.0)

let test_span_nesting () =
  Metrics.reset ();
  checki "top level" 0 (Metrics.span_depth ());
  Metrics.with_span "outer" (fun () ->
      checki "inside outer" 1 (Metrics.span_depth ());
      Metrics.with_span "inner" (fun () ->
          checki "inside inner" 2 (Metrics.span_depth ()));
      Metrics.with_span "inner" (fun () -> ()));
  checki "back to top" 0 (Metrics.span_depth ());
  (match Metrics.spans_now () with
  | [ outer ] ->
    checks "outer name" "outer" outer.Metrics.span_name;
    checki "outer calls" 1 outer.Metrics.calls;
    (match outer.Metrics.children with
    | [ inner ] ->
      checks "inner name" "inner" inner.Metrics.span_name;
      checki "same-named siblings accumulate" 2 inner.Metrics.calls
    | l -> Alcotest.failf "expected one child span, got %d" (List.length l))
  | l -> Alcotest.failf "expected one root span, got %d" (List.length l));
  (* exception safety: the stack must unwind *)
  (try Metrics.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  checki "stack unwound after exception" 0 (Metrics.span_depth ())

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)

let test_snapshot_diff () =
  Metrics.reset ();
  let c = Metrics.counter "test.snap.diff" in
  Metrics.add c 10;
  let before = Snapshot.take () in
  Metrics.add c 32;
  let after = Snapshot.take () in
  let d = Snapshot.diff before after in
  checkb "delta isolates the region" true
    (Snapshot.counter_value d "test.snap.diff" = Some 32);
  checkb "take does not perturb" true
    (Snapshot.counter_value after "test.snap.diff" = Some 42)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_snapshot_text () =
  Metrics.reset ();
  checks "empty snapshot" "(no metrics recorded)\n" (Snapshot.to_text (Snapshot.take ()));
  let c = Metrics.counter "test.snap.text" in
  Metrics.incr c;
  let txt = Snapshot.to_text (Snapshot.take ()) in
  checkb "mentions the counter" true (contains ~needle:"test.snap.text" txt);
  checkb "has a counters section" true (contains ~needle:"counters" txt)

(* The codec [wfc stats] reads a daemon's reply with: [of_json] must give
   back what [to_json] wrote, up to the 6-digit float format. *)
let snapshot_fixture =
  {
    Snapshot.counters = [ ("serve.hits", 3); ("solvability.nodes", 1140) ];
    histograms =
      [
        ("serve.latency.seconds", { Metrics.count = 4; sum = 0.0123456; min = 0.001; max = 0.0071234 });
        ("serve.queue.depth", { Metrics.count = 2; sum = 3.; min = 1.; max = 2. });
      ];
    spans =
      [
        {
          Metrics.span_name = "solvability.solve";
          calls = 2;
          total_s = 0.25;
          children =
            [
              {
                Metrics.span_name = "solvability.level.1";
                calls = 2;
                total_s = 0.1234567;
                children =
                  [ { Metrics.span_name = "sds.subdivide"; calls = 1; total_s = 0.05; children = [] } ];
              };
              { Metrics.span_name = "solvability.level.0"; calls = 2; total_s = 0.01; children = [] };
            ];
        };
        { Metrics.span_name = "automorphism"; calls = 1; total_s = 0.002; children = [] };
      ];
  }

let close_float a b = Float.abs (a -. b) <= 1e-6

let rec span_equal (a : Metrics.span_node) (b : Metrics.span_node) =
  a.span_name = b.span_name && a.calls = b.calls && close_float a.total_s b.total_s
  && List.length a.children = List.length b.children
  && List.for_all2 span_equal a.children b.children

let test_snapshot_codec_roundtrip () =
  let s = snapshot_fixture in
  match Json.parse (Json.to_string (Snapshot.to_json s)) with
  | Error e -> Alcotest.failf "to_json output did not parse: %s" e
  | Ok j -> (
    match Snapshot.of_json j with
    | Error e -> Alcotest.failf "of_json rejected to_json output: %s" e
    | Ok s' ->
      checkb "same counters" true (s'.Snapshot.counters = s.Snapshot.counters);
      checkb "same histogram names" true
        (List.map fst s'.Snapshot.histograms = List.map fst s.Snapshot.histograms);
      List.iter2
        (fun (name, (h : Metrics.histo_stats)) (_, (h' : Metrics.histo_stats)) ->
          checki (name ^ " count") h.count h'.count;
          checkb (name ^ " sum/min/max") true
            (close_float h.sum h'.sum && close_float h.min h'.min && close_float h.max h'.max))
        s.Snapshot.histograms s'.Snapshot.histograms;
      checkb "same span tree" true
        (List.length s.Snapshot.spans = List.length s'.Snapshot.spans
        && List.for_all2 span_equal s.Snapshot.spans s'.Snapshot.spans))

let test_snapshot_codec_rejects () =
  let parse_exn text =
    match Json.parse text with Ok j -> j | Error e -> Alcotest.failf "bad fixture: %s" e
  in
  List.iter
    (fun (what, text) ->
      checkb what true (Result.is_error (Snapshot.of_json (parse_exn text))))
    [
      ("a non-object", "[1, 2]");
      ("a non-int counter", {|{"counters": {"serve.hits": 1.5}}|});
      ( "a histogram with no count",
        {|{"histograms": {"serve.latency.seconds": {"sum": 0.1, "mean": 0.1, "min": 0.1, "max": 0.1}}}|}
      );
    ]

(* The exposition [wfc stats --prometheus] printed for this payload before
   the renderer moved out of the CLI; the bytes must not change. *)
let test_snapshot_prometheus_golden () =
  let payload =
    {|{"counters": {"serve.hits": 3, "solvability.model.k-set": 12},
       "histograms": {"serve.latency.seconds":
         {"count": 4, "sum": 0.0105, "mean": 0.002625, "min": 0.001, "max": 0.005}},
       "spans": []}|}
  in
  let expected =
    "# TYPE wfc_serve_hits counter\n\
     wfc_serve_hits 3\n\
     # TYPE wfc_solvability_model_k_set counter\n\
     wfc_solvability_model_k_set 12\n\
     # TYPE wfc_serve_latency_seconds summary\n\
     wfc_serve_latency_seconds_count 4\n\
     wfc_serve_latency_seconds_sum 0.010500\n"
  in
  match Result.bind (Json.parse payload) Snapshot.of_json with
  | Ok s -> checks "exposition bytes" expected (Snapshot.to_prometheus s)
  | Error e -> Alcotest.failf "payload rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("zeta", Json.Arr [ Json.Int 1; Json.Float 0.5; Json.Null; Json.Bool true ]);
        ("alpha", Json.String "esc \"quotes\" and \\ back\nslash");
        ("nested", Json.Obj [ ("k", Json.Int (-7)) ]);
      ]
  in
  let s = Json.to_string j in
  (match Json.parse s with
  | Ok j' -> checkb "parse (to_string j) = j" true (Json.equal j j')
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e);
  (* canonical: emitting twice gives identical bytes, key order irrelevant *)
  let j_reordered =
    Json.Obj
      [
        ("nested", Json.Obj [ ("k", Json.Int (-7)) ]);
        ("alpha", Json.String "esc \"quotes\" and \\ back\nslash");
        ("zeta", Json.Arr [ Json.Int 1; Json.Float 0.5; Json.Null; Json.Bool true ]);
      ]
  in
  checks "canonical bytes, key-order independent" s (Json.to_string j_reordered);
  checkb "equal is key-order insensitive" true (Json.equal j j_reordered)

let test_json_parse_errors () =
  checkb "garbage rejected" true (Result.is_error (Json.parse "{nope}"));
  checkb "trailing junk rejected" true (Result.is_error (Json.parse "{} x"));
  checkb "unterminated string rejected" true (Result.is_error (Json.parse "\"abc"))

(* Nesting is capped at 512 levels: a document exactly that deep parses,
   one level more is an [Error] naming the cap, for arrays and objects
   alike. *)
let test_json_depth_cap () =
  let arrays d = String.make d '[' ^ String.make d ']' in
  let objects d =
    String.concat "" (List.init d (fun _ -> "{\"k\":")) ^ "0" ^ String.make d '}'
  in
  List.iter
    (fun (kind, doc) ->
      checkb (kind ^ ": 512 levels parse") true (Result.is_ok (Json.parse (doc 512)));
      match Json.parse (doc 513) with
      | Ok _ -> Alcotest.failf "%s: 513 levels parsed" kind
      | Error e ->
        checkb (kind ^ ": error names the cap") true
          (String.ends_with ~suffix:"nesting deeper than 512" e))
    [ ("arrays", arrays); ("objects", objects) ]

let test_json_to_line () =
  let j =
    Json.Obj
      [
        ("zeta", Json.Arr [ Json.Int 1; Json.Float 0.5 ]);
        ("alpha", Json.String "a\nb");
      ]
  in
  let line = Json.to_line j in
  checks "compact canonical form" "{\"alpha\":\"a\\nb\",\"zeta\":[1,0.500000]}" line;
  checkb "no raw newline in the line" true
    (not (String.exists (fun c -> c = '\n') line));
  (* to_line and to_string are the same canonical value, different layout *)
  match (Json.parse line, Json.parse (Json.to_string j)) with
  | Ok a, Ok b -> checkb "same tree as to_string" true (Json.equal a b)
  | _ -> Alcotest.fail "to_line output did not parse back"

(* The exact bytes of both renderings: indentation and separators, empty
   containers, sorted keys at every depth, escapes (a quote, a backslash,
   a control character) and non-finite floats as null. *)
let test_json_golden_bytes () =
  let j =
    Json.Obj
      [
        ( "b",
          Json.Arr
            [ Json.Int 1; Json.Arr []; Json.Obj []; Json.Obj [ ("y", Json.Null); ("x", Json.Bool false) ] ]
        );
        ("a", Json.String "q\"b\\s\001e\t");
        ("c", Json.Float infinity);
        ("e", Json.Obj [ ("n", Json.Arr [ Json.Float nan; Json.Bool true ]) ]);
        ("d", Json.Float (-2.25));
      ]
  in
  checks "to_string"
    {|{
  "a": "q\"b\\s\u0001e\t",
  "b": [
    1,
    [],
    {},
    {
      "x": false,
      "y": null
    }
  ],
  "c": null,
  "d": -2.250000,
  "e": {
    "n": [
      null,
      true
    ]
  }
}
|}
    (Json.to_string j);
  checks "to_line"
    {|{"a":"q\"b\\s\u0001e\t","b":[1,[],{},{"x":false,"y":null}],"c":null,"d":-2.250000,"e":{"n":[null,true]}}|}
    (Json.to_line j)

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_log_lines_and_levels () =
  let path = Filename.temp_file "wfc-log" ".log" in
  Sys.remove path;
  let log = Log.open_log ~level:Log.Info path in
  checkb "debug gated off" false (Log.enabled log Log.Debug);
  checkb "warn enabled" true (Log.enabled log Log.Warn);
  Log.event log Log.Debug "invisible" [];
  Log.event log Log.Info "query" [ ("req_id", Json.String "r1"); ("nodes", Json.Int 42) ];
  (* envelope fields win over payload: a lying "level" must not survive *)
  Log.event log Log.Warn "shed" [ ("level", Json.String "debug") ];
  Log.close log;
  Log.event log Log.Error "after-close" [];
  let contents = read_file path in
  (match Log.validate contents with
  | Ok n -> checki "gated + closed events not written" 2 n
  | Error e -> Alcotest.failf "log does not validate: %s" e);
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' contents)
  in
  (match lines with
  | [ l1; l2 ] ->
    checkb "first line is the query" true (contains ~needle:"\"event\":\"query\"" l1);
    checkb "payload kept" true (contains ~needle:"\"req_id\":\"r1\"" l1);
    checkb "envelope level wins" true (contains ~needle:"\"level\":\"warn\"" l2);
    List.iter
      (fun l ->
        match Json.parse l with
        | Ok j -> checkb "line validates" true (Log.validate_line j = Ok ())
        | Error e -> Alcotest.failf "line is not JSON: %s" e)
      [ l1; l2 ]
  | l -> Alcotest.failf "expected 2 lines, got %d" (List.length l));
  Sys.remove path

(* A log on a full disk: the write fails inside the log's mutex. Both
   events must return (the mutex is released on the failing path), raise
   nothing, and be counted. Run on a thread with a bounded wait, so a
   blocked second event fails the test instead of hanging it. *)
let test_log_write_error_released () =
  let errors = Metrics.counter "obs.log.write_errors" in
  let before = Metrics.value errors in
  let log = Log.open_log "/dev/full" in
  let outcome = Atomic.make None in
  let writer () =
    Atomic.set outcome
      (Some
         (match
            Log.event log Log.Info "first" [];
            Log.event log Log.Info "second" []
          with
         | () -> Ok ()
         | exception e -> Error (Printexc.to_string e)))
  in
  let t = Thread.create writer () in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get outcome = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  match Atomic.get outcome with
  | None -> Alcotest.fail "a second event after a failed write is still blocked after 5 s"
  | Some (Error e) -> Alcotest.failf "event raised %s" e
  | Some (Ok ()) ->
    Thread.join t;
    checki "both failed writes counted" 2 (Metrics.value errors - before);
    Log.close log

let test_log_validate_rejects () =
  checkb "empty log rejected" true (Result.is_error (Log.validate ""));
  checkb "non-JSON line rejected" true (Result.is_error (Log.validate "not json\n"));
  checkb "missing envelope rejected" true (Result.is_error (Log.validate "{\"a\":1}\n"));
  checkb "unknown level rejected" true
    (Result.is_error
       (Log.validate
          "{\"schema\":\"wfc.log.v1\",\"ts\":1.0,\"level\":\"loud\",\"event\":\"x\"}\n"));
  (* the error names the offending line *)
  let good = "{\"event\":\"x\",\"level\":\"info\",\"schema\":\"wfc.log.v1\",\"ts\":1.000000}" in
  (match Log.validate (good ^ "\n[]\n") with
  | Error e -> checkb "line number reported" true (contains ~needle:"line 2" e)
  | Ok _ -> Alcotest.fail "bad second line accepted");
  match Log.validate (good ^ "\n\n" ^ good ^ "\n") with
  | Ok n -> checki "blank lines skipped" 2 n
  | Error e -> Alcotest.failf "blank-tolerant validation failed: %s" e

(* ------------------------------------------------------------------ *)
(* Flight recorder boundaries                                          *)

let test_flight_exact_capacity () =
  let cap = 8 in
  let r = Flight.create ~capacity:cap in
  (* fill to EXACTLY capacity: nothing may be dropped yet *)
  for i = 1 to cap do
    Flight.push r i
  done;
  checki "length = capacity" cap (Flight.length r);
  checki "nothing dropped at exact capacity" 0 (Flight.dropped r);
  checkb "contents oldest-first" true (Flight.contents r = [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  (* one past capacity: the oldest element goes, exactly one drop *)
  Flight.push r 9;
  checki "length pinned at capacity" cap (Flight.length r);
  checki "one drop" 1 (Flight.dropped r);
  checkb "oldest evicted first" true (Flight.contents r = [ 2; 3; 4; 5; 6; 7; 8; 9 ]);
  (* march through several internal-truncation boundaries (the list-backed
     ring compacts at 2*capacity): order and bounds must hold throughout *)
  for i = 10 to 5 * cap do
    Flight.push r i
  done;
  checki "length still capacity" cap (Flight.length r);
  checki "drops account for every eviction" (4 * cap) (Flight.dropped r);
  checkb "retained suffix is the last capacity pushes" true
    (Flight.contents r = List.init cap (fun i -> (4 * cap) + 1 + i));
  Flight.clear r;
  checki "clear empties" 0 (Flight.length r);
  checki "clear resets drops" 0 (Flight.dropped r)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let test_report_schema () =
  Metrics.reset ();
  let c = Metrics.counter "test.report.counter" in
  Metrics.add c 5;
  let scenarios =
    [
      Report.scenario ~nodes:12 ~verdict:"solvable" "alpha" 0.25;
      Report.scenario "beta" 0.5;
    ]
  in
  let j = Report.to_json ~snapshot:(Snapshot.take ()) scenarios in
  checkb "schema tag" true (Json.member "schema" j = Some (Json.String Report.schema_version));
  checkb "validates" true (Result.is_ok (Report.validate j));
  checkb "verdict constraint" true
    (Result.is_ok (Report.validate ~expect_verdict:"solvable" ~min_nodes:1 j));
  checkb "named scenario" true
    (Result.is_ok
       (Report.validate ~scenario_name:"alpha" ~expect_verdict:"solvable" ~min_nodes:12 j));
  checkb "wrong verdict fails" true
    (Result.is_error (Report.validate ~expect_verdict:"unsolvable" j));
  checkb "min_nodes too high fails" true
    (Result.is_error (Report.validate ~scenario_name:"alpha" ~min_nodes:13 j));
  checkb "missing scenario fails" true
    (Result.is_error (Report.validate ~scenario_name:"gamma" j));
  (* emitted bytes parse back to an equal tree *)
  match Json.parse (Json.to_string j) with
  | Ok j' -> checkb "report round-trips" true (Json.equal j j')
  | Error e -> Alcotest.failf "report did not parse back: %s" e

let test_report_rejects_bad () =
  checkb "wrong schema tag" true
    (Result.is_error
       (Report.validate (Json.Obj [ ("schema", Json.String "nope"); ("scenarios", Json.Arr []) ])));
  checkb "scenarios not an array" true
    (Result.is_error
       (Report.validate
          (Json.Obj
             [ ("schema", Json.String Report.schema_version); ("scenarios", Json.Int 3) ])))

(* ------------------------------------------------------------------ *)
(* Domain-safety: hammer the registry from two domains at once          *)

let test_two_domain_hammer () =
  Metrics.reset ();
  let iters = 5_000 in
  let work tag () =
    (* registration races on purpose: both domains get-or-create the
       shared instruments while incrementing them *)
    let shared = Metrics.counter "test.hammer.shared" in
    let mine = Metrics.counter ("test.hammer." ^ tag) in
    let h = Metrics.histogram "test.hammer.histo" in
    for i = 1 to iters do
      Metrics.incr shared;
      Metrics.incr mine;
      Metrics.observe h (float_of_int (i land 7));
      Metrics.with_span ("hammer." ^ tag) (fun () ->
          Metrics.with_span "inner" (fun () -> ()))
    done
  in
  let d = Domain.spawn (work "a") in
  work "b" ();
  Domain.join d;
  checki "no lost shared increments" (2 * iters)
    (match List.assoc_opt "test.hammer.shared" (Metrics.counters_now ()) with
    | Some v -> v
    | None -> -1);
  checki "domain a private counter" iters
    (match List.assoc_opt "test.hammer.a" (Metrics.counters_now ()) with
    | Some v -> v
    | None -> -1);
  checki "domain b private counter" iters
    (match List.assoc_opt "test.hammer.b" (Metrics.counters_now ()) with
    | Some v -> v
    | None -> -1);
  (match List.assoc_opt "test.hammer.histo" (Metrics.histograms_now ()) with
  | None -> Alcotest.fail "histogram missing after hammer"
  | Some (s : Metrics.histo_stats) ->
    checki "no lost observations" (2 * iters) s.count;
    checkb "min in range" true (s.min >= 0.);
    checkb "max in range" true (s.max <= 7.));
  checki "main stack unwound" 0 (Metrics.span_depth ());
  (* each domain's top-level span is a root of the shared forest, with its
     own well-formed subtree *)
  let roots = Metrics.spans_now () in
  List.iter
    (fun tag ->
      match List.find_opt (fun r -> r.Metrics.span_name = "hammer." ^ tag) roots with
      | None -> Alcotest.failf "missing root span hammer.%s" tag
      | Some r ->
        checki ("hammer." ^ tag ^ " calls") iters r.Metrics.calls;
        (match r.Metrics.children with
        | [ inner ] ->
          checks "child name" "inner" inner.Metrics.span_name;
          checki "child calls" iters inner.Metrics.calls
        | l -> Alcotest.failf "expected one child span, got %d" (List.length l)))
    [ "a"; "b" ]

(* Snapshots under concurrent writers: [Snapshot.take] must read a sane
   value at any instant (monotone along the observation order) and exactly
   the true total once the writers are done — no torn or lost reads. *)
let test_snapshot_under_domains () =
  Metrics.reset ();
  let iters = 20_000 in
  let c = Metrics.counter "test.snap.domains" in
  let work () =
    for _ = 1 to iters do
      Metrics.incr c
    done
  in
  let a = Domain.spawn work and b = Domain.spawn work in
  let observed = ref [] in
  (* sample while both domains hammer the shared counter *)
  while Metrics.value c < 2 * iters do
    (match Snapshot.counter_value (Snapshot.take ()) "test.snap.domains" with
    | Some v -> observed := v :: !observed
    | None -> ());
    Domain.cpu_relax ()
  done;
  Domain.join a;
  Domain.join b;
  let final = Snapshot.take () in
  checkb "final snapshot is exact" true
    (Snapshot.counter_value final "test.snap.domains" = Some (2 * iters));
  let rec monotone = function
    | newer :: older :: rest -> newer >= older && monotone (older :: rest)
    | _ -> true
  in
  checkb "mid-flight snapshots never go backwards" true (monotone !observed);
  checkb "mid-flight snapshots never overshoot" true
    (List.for_all (fun v -> v >= 0 && v <= 2 * iters) !observed);
  (* determinism: two identical hammer runs leave identical deltas *)
  let run () =
    let before = Snapshot.take () in
    let a = Domain.spawn work and b = Domain.spawn work in
    Domain.join a;
    Domain.join b;
    (Snapshot.diff before (Snapshot.take ())).Snapshot.counters
    |> List.filter (fun (n, _) -> n = "test.snap.domains")
  in
  checkb "identical runs, identical snapshot deltas" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Determinism guard: same seeded solve => same stats and counter deltas *)

let solve_renaming_and_deltas () =
  Metrics.reset ();
  let before = Snapshot.take () in
  let v =
    Wfc_core.Solvability.solve ~max_level:2
      (Wfc_tasks.Instances.adaptive_renaming ~procs:2 ~names:3)
  in
  let d = Snapshot.diff before (Snapshot.take ()) in
  let stats = Wfc_core.Solvability.stats_of_verdict v in
  (Wfc_core.Solvability.verdict_name v, stats, d.Snapshot.counters)

let test_determinism_guard () =
  let name1, s1, deltas1 = solve_renaming_and_deltas () in
  let name2, s2, deltas2 = solve_renaming_and_deltas () in
  checks "same verdict" name1 name2;
  checks "renaming (2,3) is solvable" "solvable" name1;
  checki "same nodes" s1.Wfc_core.Solvability.nodes s2.Wfc_core.Solvability.nodes;
  checki "same backtracks" s1.Wfc_core.Solvability.backtracks s2.Wfc_core.Solvability.backtracks;
  checki "same prunes" s1.Wfc_core.Solvability.prunes s2.Wfc_core.Solvability.prunes;
  checkb "searched at all" true (s1.Wfc_core.Solvability.nodes > 0);
  (* identical solver counter deltas, name for name. Cache counters
     (sds.memo, simplex.intern) are excluded: the second run hits memos the
     first one populated, which is exactly what those counters exist to
     show. *)
  let solver_only =
    List.filter (fun (name, v) ->
        v <> 0 && String.length name >= 12 && String.sub name 0 12 = "solvability.")
  in
  checkb "identical solver counter deltas" true (solver_only deltas1 = solver_only deltas2);
  checkb "solver counters flowed to the registry" true
    (List.assoc_opt "solvability.nodes" deltas1 = Some s1.Wfc_core.Solvability.nodes)

let () =
  Alcotest.run "wfc_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counters are monotone" `Quick test_counter_monotone;
          Alcotest.test_case "reset keeps handles valid" `Quick test_reset_keeps_handles;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "two-domain hammer" `Quick test_two_domain_hammer;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "diff isolates a region" `Quick test_snapshot_diff;
          Alcotest.test_case "text rendering" `Quick test_snapshot_text;
          Alcotest.test_case "snapshots under two domains" `Quick test_snapshot_under_domains;
          Alcotest.test_case "of_json inverts to_json" `Quick test_snapshot_codec_roundtrip;
          Alcotest.test_case "of_json rejects malformed input" `Quick test_snapshot_codec_rejects;
          Alcotest.test_case "prometheus exposition is pinned" `Quick
            test_snapshot_prometheus_golden;
        ] );
      ( "json",
        [
          Alcotest.test_case "canonical round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "nesting is capped at 512" `Quick test_json_depth_cap;
          Alcotest.test_case "single-line rendering" `Quick test_json_to_line;
          Alcotest.test_case "golden bytes of both renderings" `Quick test_json_golden_bytes;
        ] );
      ( "log",
        [
          Alcotest.test_case "lines, levels, close" `Quick test_log_lines_and_levels;
          Alcotest.test_case "validator rejects bad streams" `Quick test_log_validate_rejects;
          Alcotest.test_case "a failed write releases the log and is counted" `Quick
            test_log_write_error_released;
        ] );
      ( "flight",
        [ Alcotest.test_case "wraparound at exact capacity" `Quick test_flight_exact_capacity ] );
      ( "report",
        [
          Alcotest.test_case "schema + validate" `Quick test_report_schema;
          Alcotest.test_case "validator rejects bad input" `Quick test_report_rejects_bad;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded solve counter deltas" `Quick test_determinism_guard ] );
    ]
