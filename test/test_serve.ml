(* Tests for the serving layer: wire codecs and framing, the persistent
   verdict store (durability, quarantine), cached solving, and the daemon
   end to end — including deterministic coalescing and backpressure. *)

open Wfc_tasks
open Wfc_core
open Wfc_serve
open Wfc_storage

let checkb = Alcotest.check Alcotest.bool

let checki = Alcotest.check Alcotest.int

let checks = Alcotest.check Alcotest.string

let json_str j = Wfc_obs.Json.to_string j

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let counter_value name = Wfc_obs.Metrics.value (Wfc_obs.Metrics.counter name)

let default_spec =
  {
    Wire.task = "consensus";
    procs = 2;
    param = 2;
    max_level = 1;
    model = "wait-free";
    symmetry = true;
    collapse = true;
  }

(* The record an inline solve of [spec] would produce: the reference every
   daemon answer must match byte-for-byte (modulo timing fields, which
   verdict_json strips). *)
let inline_record (spec : Wire.spec) =
  let t = Instances.by_name ~name:spec.Wire.task ~procs:spec.Wire.procs ~param:spec.Wire.param in
  let outcome =
    Solvability.outcome_of_verdict (Solvability.solve ~max_level:spec.Wire.max_level t)
  in
  Record.make ~task:t ~spec:(Wire.spec_to_string spec) ~max_level:spec.Wire.max_level
    ~budget:Solvability.default_budget outcome

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                        *)
(* ------------------------------------------------------------------ *)

let roundtrip_request r =
  match Wire.request_of_json (Wire.request_to_json r) with
  | Ok r' -> checks "request" (json_str (Wire.request_to_json r)) (json_str (Wire.request_to_json r'))
  | Error e -> Alcotest.fail e

let roundtrip_response r =
  match Wire.response_of_json (Wire.response_to_json r) with
  | Ok r' ->
    checks "response" (json_str (Wire.response_to_json r)) (json_str (Wire.response_to_json r'))
  | Error e -> Alcotest.fail e

let wire_tests =
  [
    Alcotest.test_case "request codec round-trips" `Quick (fun () ->
        roundtrip_request (Wire.Query { spec = default_spec; req_id = None });
        roundtrip_request (Wire.Query { spec = default_spec; req_id = Some "cli-42-7" });
        roundtrip_request Wire.Ping;
        roundtrip_request Wire.Stats;
        roundtrip_request Wire.Shutdown);
    Alcotest.test_case "response codec round-trips" `Quick (fun () ->
        roundtrip_response Wire.Shed;
        roundtrip_response (Wire.Pong { version = None; uptime_s = None });
        roundtrip_response (Wire.Pong { version = Some "1.0.0"; uptime_s = Some 12.5 });
        roundtrip_response Wire.Bye;
        roundtrip_response (Wire.Failed "boom");
        roundtrip_response
          (Wire.Metrics
             { metrics = Wfc_obs.Json.Obj [ ("x", Wfc_obs.Json.Int 1) ]; server = None });
        roundtrip_response
          (Wire.Metrics
             {
               metrics = Wfc_obs.Json.Obj [ ("x", Wfc_obs.Json.Int 1) ];
               server = Some (Wfc_obs.Json.Obj [ ("uptime_s", Wfc_obs.Json.Float 3.5) ]);
             });
        roundtrip_response
          (Wire.Verdict
             {
               source = Wire.Coalesced;
               record = inline_record default_spec;
               req_id = None;
               timing = None;
             });
        roundtrip_response
          (Wire.Verdict
             {
               source = Wire.Computed;
               record = inline_record default_spec;
               req_id = Some "r1";
               timing =
                 Some
                   {
                     Wire.queue_wait_s = 0.001;
                     solve_s = 0.25;
                     store_s = 0.002;
                     total_s = 0.253;
                   };
             }));
    Alcotest.test_case "pre-telemetry frames still decode (absent fields are None)" `Quick
      (fun () ->
        (* a query as an old client sends it: no req_id *)
        (match
           Wire.request_of_json
             (Wfc_obs.Json.Obj
                [
                  ("op", Wfc_obs.Json.String "query");
                  ("task", Wfc_obs.Json.String "consensus");
                  ("procs", Wfc_obs.Json.Int 2);
                  ("param", Wfc_obs.Json.Int 2);
                  ("max_level", Wfc_obs.Json.Int 1);
                ])
         with
        | Ok (Wire.Query { spec; req_id = None }) ->
          checks "model defaults" "wait-free" spec.Wire.model
        | _ -> Alcotest.fail "old-style query should decode with req_id = None");
        (* a pong as an old daemon sends it: bare status *)
        (match
           Wire.response_of_json (Wfc_obs.Json.Obj [ ("status", Wfc_obs.Json.String "pong") ])
         with
        | Ok (Wire.Pong { version = None; uptime_s = None }) -> ()
        | _ -> Alcotest.fail "old-style pong should decode with no payload");
        (* an ok response as an old daemon sends it: no req_id, no timing *)
        match
          Wire.response_of_json
            (Wfc_obs.Json.Obj
               [
                 ("status", Wfc_obs.Json.String "ok");
                 ("source", Wfc_obs.Json.String "computed");
                 ("record", Record.record_to_json (inline_record default_spec));
               ])
        with
        | Ok (Wire.Verdict { req_id = None; timing = None; source = Wire.Computed; _ }) -> ()
        | _ -> Alcotest.fail "old-style verdict should decode with absent telemetry");
    Alcotest.test_case "malformed messages are rejected" `Quick (fun () ->
        checkb "bad op" true
          (Result.is_error (Wire.request_of_json (Wfc_obs.Json.Obj [ ("op", Wfc_obs.Json.String "no") ])));
        checkb "not an object" true (Result.is_error (Wire.request_of_json (Wfc_obs.Json.Int 3)));
        checkb "bad status" true
          (Result.is_error
             (Wire.response_of_json (Wfc_obs.Json.Obj [ ("status", Wfc_obs.Json.String "?") ]))));
    Alcotest.test_case "framing round-trips over a socketpair" `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let j = Wire.request_to_json (Wire.Query { spec = default_spec; req_id = None }) in
        Wire.write_frame a j;
        Wire.write_frame a (Wire.request_to_json Wire.Ping);
        (match Wire.read_frame b with
        | Ok j' -> checks "first frame" (json_str j) (json_str j')
        | Error e -> Alcotest.fail e);
        (match Wire.read_frame b with
        | Ok j' -> checks "second frame" (json_str (Wire.request_to_json Wire.Ping)) (json_str j')
        | Error e -> Alcotest.fail e);
        Unix.close a;
        (* EOF is a clean error, not an exception *)
        checkb "eof" true (Result.is_error (Wire.read_frame b));
        Unix.close b);
    Alcotest.test_case "oversized and truncated frames are rejected" `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let prefix = Bytes.create 4 in
        Bytes.set_int32_be prefix 0 (Int32.of_int (Wire.max_frame + 1));
        ignore (Unix.write a prefix 0 4);
        checkb "oversized" true (Result.is_error (Wire.read_frame b));
        Unix.close a;
        Unix.close b;
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Bytes.set_int32_be prefix 0 64l;
        ignore (Unix.write a prefix 0 4);
        ignore (Unix.write a (Bytes.of_string "{\"op\"") 0 5);
        Unix.close a;
        (* length said 64 bytes, the peer died after 5: a short read *)
        checkb "truncated" true (Result.is_error (Wire.read_frame b));
        Unix.close b);
    Alcotest.test_case "a lying length prefix costs no payload-sized buffer" `Quick
      (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let prefix = Bytes.create 4 in
        Bytes.set_int32_be prefix 0 (Int32.of_int Wire.max_frame);
        ignore (Unix.write a prefix 0 4);
        ignore (Unix.write_substring a "0123456789" 0 10);
        Unix.close a;
        let before = Gc.allocated_bytes () in
        let result = Wire.read_frame b in
        let allocated = Gc.allocated_bytes () -. before in
        Unix.close b;
        checkb "truncated payload" true (result = Error "truncated frame payload");
        checkb
          (Printf.sprintf "allocated %.0f bytes, under 1 MiB" allocated)
          true
          (allocated < 1048576.);
        (* the incremental decoder grows its buffer by the same rule; it
           is sent more than its first 1 KiB, so that it grows at all *)
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        ignore (Unix.write a prefix 0 4);
        ignore (Unix.write_substring a (String.make 4096 '0') 0 4096);
        Unix.close a;
        let before = Gc.allocated_bytes () in
        let d = Wire.decoder () in
        let rec decoded () =
          match Wire.decode d with
          | Some r -> r
          | None ->
            ignore (Wire.decoder_read d b);
            decoded ()
        in
        let result = decoded () in
        let allocated = Gc.allocated_bytes () -. before in
        Unix.close b;
        checkb "decoder: truncated payload" true (result = Error "truncated frame payload");
        checkb
          (Printf.sprintf "decoder allocated %.0f bytes, under 1 MiB" allocated)
          true
          (allocated < 1048576.));
  ]

(* JSON-ish text: the grammar's characters and literals, the wire's keys,
   and prefixes of real request and response documents, so that random
   strings often parse and reach the decoders' deeper fields. No token
   spells a shutdown, so a daemon fed these keeps serving. *)
let jsonish_gen =
  let record =
    {
      Record.digest = "d";
      task = "consensus(procs=2,param=2)";
      model = "wait-free";
      procs = 2;
      max_level = 1;
      budget = 1;
      outcome =
        {
          Solvability.o_verdict = "solvable";
          o_level = 1;
          o_nodes = 1;
          o_backtracks = 0;
          o_prunes = 0;
          o_elapsed = 0.;
          o_decide = [ (0, 1) ];
        };
      created_at = 0.;
    }
  in
  let documents =
    List.map json_str
      [
        Wire.request_to_json (Wire.Query { spec = default_spec; req_id = Some "r" });
        Wire.response_to_json
          (Wire.Verdict
             {
               source = Wire.From_store;
               record;
               req_id = Some "r";
               timing = Some { Wire.queue_wait_s = 0.; solve_s = 0.; store_s = 0.; total_s = 0. };
             });
        Wire.response_to_json (Wire.Pong { version = Some "v"; uptime_s = Some 1. });
        Wire.response_to_json (Wire.Metrics { metrics = Wfc_obs.Json.Obj []; server = None });
      ]
  in
  let tokens =
    [ "{"; "}"; "["; "]"; ":"; ","; "\""; "\\"; " "; "0"; "-1"; "2.5"; "1e999"; "true";
      "false"; "null"; "\"op\""; "\"query\""; "\"ping\""; "\"status\""; "\"ok\"";
      "\"error\""; "\"message\""; "\"record\""; "\"decide\""; "\"timing\"";
      "\"\\u00e9\""; "\"\\ud800\"" ]
  in
  let open QCheck2.Gen in
  let prefix =
    let* doc = oneofl documents in
    let+ cut = int_range 0 (String.length doc) in
    String.sub doc 0 cut
  in
  map (String.concat "") (list_size (int_range 0 30) (frequency [ (8, oneofl tokens); (1, prefix) ]))

let frame_header n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 n;
  Bytes.to_string b

(* Bytes that end before a frame does: part of a header, or a header whose
   length is out of bounds or longer than the payload that follows. *)
let truncated_frame_gen =
  let open QCheck2.Gen in
  let framed =
    let* n =
      oneof
        [
          int32;
          map Int32.of_int (int_range 0 64);
          map Int32.of_int (int_range (Wire.max_frame - 1) (Wire.max_frame + 1));
        ]
    in
    let len = Int32.to_int n in
    let+ payload =
      string_size ~gen:char
        (int_range 0 (if len > 0 && len <= Wire.max_frame then min (len - 1) 2048 else 64))
    in
    frame_header n ^ payload
  in
  oneof [ string_size ~gen:char (int_range 1 3); framed ]

(* What [read] makes of [bytes] sent by a peer that then closes. *)
let read_sent read bytes =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring a bytes 0 (String.length bytes));
  Unix.close a;
  Fun.protect ~finally:(fun () -> Unix.close b) (fun () -> read b)

(* A whole frame of JSON-ish payload, sometimes followed by stray bytes. *)
let whole_frame_gen =
  let open QCheck2.Gen in
  let* payload = jsonish_gen in
  let+ trailer = string_size ~gen:char (int_range 0 8) in
  frame_header (Int32.of_int (String.length payload)) ^ payload ^ trailer

(* [bytes] with the cut points that split it into chunks. *)
let chunked gen =
  let open QCheck2.Gen in
  let* bytes = gen in
  let+ cuts = list_size (int_range 0 8) (int_range 0 (String.length bytes)) in
  (bytes, List.sort_uniq compare cuts)

(* What [Wire.decode] makes of [bytes] sent chunk by chunk, decoding after
   each, by a peer that then closes. *)
let decode_sent (bytes, cuts) =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock b;
  let d = Wire.decoder () in
  let rec drain () =
    match Wire.decode d with
    | Some r -> Some r
    | None -> (
      match Wire.decoder_read d b with
      | _ -> drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None)
  in
  let a_open = ref true in
  let close_a () =
    if !a_open then begin
      a_open := false;
      Unix.close a
    end
  in
  let rec feed off = function
    | [] ->
      close_a ();
      drain ()
    | cut :: cuts -> (
      ignore (Unix.write_substring a bytes off (cut - off));
      match drain () with Some r -> Some r | None -> feed cut cuts)
  in
  Fun.protect
    ~finally:(fun () ->
      close_a ();
      Unix.close b)
    (fun () -> feed 0 (cuts @ [ String.length bytes ]))

let fuzz_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:5000 ~name:"JSON and wire decoders never raise"
         ~print:String.escaped jsonish_gen (fun s ->
           match Wfc_obs.Json.parse s with
           | Error _ -> true
           | Ok j ->
             ignore (Wire.request_of_json j);
             ignore (Wire.response_of_json j);
             true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"truncated and out-of-bounds frames are errors"
         ~print:String.escaped truncated_frame_gen (fun bytes ->
           Result.is_error (read_sent Wire.read_frame_opt bytes)
           && Result.is_error (read_sent Wire.read_frame bytes)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"chunked frames decode as read_frame_opt reads them"
         ~print:(fun (bytes, cuts) ->
           Printf.sprintf "%S cut at [%s]" bytes (String.concat "; " (List.map string_of_int cuts)))
         (chunked (QCheck2.Gen.oneof [ truncated_frame_gen; whole_frame_gen ]))
         (fun (bytes, cuts) ->
           decode_sent (bytes, cuts) = Some (read_sent Wire.read_frame_opt bytes)));
  ]

(* ------------------------------------------------------------------ *)
(* Store                                                                *)
(* ------------------------------------------------------------------ *)

let store_tests =
  [
    Alcotest.test_case "put then find round-trips" `Quick (fun () ->
        let st = Engine.open_store (temp_dir "wfc-store") in
        let r = inline_record default_spec in
        Engine.put st r;
        (match Engine.find st ~digest:r.Record.digest ~model:"wait-free" ~max_level:1 ~budget:r.Record.budget with
        | None -> Alcotest.fail "record not found after put"
        | Some r' ->
          checks "verdict bytes survive the disk" (json_str (Record.verdict_json r))
            (json_str (Record.verdict_json r')));
        checkb "record validates" true
          (Record.validate_json (Record.record_to_json r) = Ok ()));
    Alcotest.test_case "budget mismatch is a miss, not a wrong answer" `Quick (fun () ->
        let st = Engine.open_store (temp_dir "wfc-store") in
        let r = inline_record default_spec in
        Engine.put st r;
        checkb "other budget misses" true
          (Engine.find st ~digest:r.Record.digest ~model:"wait-free" ~max_level:1 ~budget:(r.Record.budget + 1) = None);
        (* the record is kept: the original budget still hits *)
        checkb "original budget still hits" true
          (Engine.find st ~digest:r.Record.digest ~model:"wait-free" ~max_level:1 ~budget:r.Record.budget <> None));
    Alcotest.test_case "levels are separate questions" `Quick (fun () ->
        let st = Engine.open_store (temp_dir "wfc-store") in
        let r = inline_record default_spec in
        Engine.put st r;
        checkb "level 2 misses" true
          (Engine.find st ~digest:r.Record.digest ~model:"wait-free" ~max_level:2 ~budget:r.Record.budget = None));
    Alcotest.test_case "torn record is quarantined on read" `Quick (fun () ->
        let dir = temp_dir "wfc-store" in
        let st = Engine.open_store dir in
        let r = inline_record default_spec in
        Engine.put st r;
        let path = Engine.path_of st ~digest:r.Record.digest ~model:"wait-free" ~max_level:1 in
        (* truncate mid-object, as a crash during a non-atomic write would *)
        let oc = open_out path in
        output_string oc "{\"schema\": \"wfc.store.v1\", \"dig";
        close_out oc;
        (* the handle that wrote it still answers from its cache tier —
           damage on disk cannot reach a warm answer *)
        checkb "warm cache still serves" true
          (Engine.find st ~digest:r.Record.digest ~model:"wait-free" ~max_level:1 ~budget:r.Record.budget <> None);
        (* a cold process (fresh handle) must hit the disk: miss + quarantine *)
        let cold = Engine.open_store dir in
        checkb "torn record misses" true
          (Engine.find cold ~digest:r.Record.digest ~model:"wait-free" ~max_level:1 ~budget:r.Record.budget = None);
        checkb "file moved out of the way" false (Sys.file_exists path);
        let report = Engine.verify cold in
        checki "quarantined" 1 report.Engine.quarantined;
        checki "no in-place corruption left" 0 (List.length report.Engine.corrupt));
    Alcotest.test_case "verify reports in-place damage without mutating" `Quick (fun () ->
        let dir = temp_dir "wfc-store" in
        let st = Engine.open_store dir in
        let r = inline_record default_spec in
        Engine.put st r;
        let bad = Filename.concat dir "not-a-record.json" in
        let oc = open_out bad in
        output_string oc "][";
        close_out oc;
        let report = Engine.verify st in
        checki "valid" 1 report.Engine.valid;
        checki "corrupt" 1 (List.length report.Engine.corrupt);
        checkb "verify left the file in place" true (Sys.file_exists bad));
    Alcotest.test_case "misfiled record is caught by verify" `Quick (fun () ->
        let dir = temp_dir "wfc-store" in
        let st = Engine.open_store dir in
        let r = inline_record default_spec in
        let misfiled = Filename.concat dir (String.make 32 'f' ^ ".L1.json") in
        let oc = open_out misfiled in
        output_string oc (json_str (Record.record_to_json r));
        close_out oc;
        let report = Engine.verify st in
        checki "mismatched" 1 (List.length report.Engine.mismatched));
    Alcotest.test_case "gc removes quarantine and stray tmp files only" `Quick (fun () ->
        let dir = temp_dir "wfc-store" in
        let st = Engine.open_store dir in
        let r = inline_record default_spec in
        Engine.put st r;
        (* a crash between open and rename leaves a .wtmp — named so that no
           scan can mistake it for a record, even though it sits beside them *)
        let oc = open_out (Filename.concat dir "interrupted.json.12345.0.wtmp") in
        output_string oc "{";
        close_out oc;
        let oc = open_out (Filename.concat (Filename.concat dir "quarantine") "old.json") in
        output_string oc "][";
        close_out oc;
        let report = Engine.verify st in
        checki "stray tmp seen" 1 report.Engine.stray_tmp;
        checki "quarantine seen" 1 report.Engine.quarantined;
        let removed = ref 0 in
        Engine.gc st ~removed;
        checki "two files removed" 2 !removed;
        let report = Engine.verify st in
        checki "clean" 0 (report.Engine.stray_tmp + report.Engine.quarantined);
        checkb "the valid record survived gc" true
          (Engine.find st ~digest:r.Record.digest ~model:"wait-free" ~max_level:1 ~budget:r.Record.budget <> None));
  ]

(* ------------------------------------------------------------------ *)
(* Cached solving                                                       *)
(* ------------------------------------------------------------------ *)

let cached_tests =
  let consensus = "consensus(procs=2,param=2)" in
  [
    Alcotest.test_case "answer files on miss and hits after" `Quick (fun () ->
        let st = Engine.open_store (temp_dir "wfc-store") in
        let t = Instances.binary_consensus ~procs:2 in
        let ask () =
          Engine.answer (Some st) ~opts:(Solvability.options ()) ~spec:consensus ~max_level:1 t
        in
        let r1 =
          match ask () with
          | Ok (Engine.Computed { record; _ }) -> record
          | Ok (Engine.Stored _) -> Alcotest.fail "first call computes"
          | Error e -> Alcotest.fail (Engine.error_to_string e)
        in
        let r2 =
          match ask () with
          | Ok (Engine.Stored r) -> r
          | Ok (Engine.Computed _) -> Alcotest.fail "second call hits"
          | Error e -> Alcotest.fail (Engine.error_to_string e)
        in
        let o1 = r1.Record.outcome and o2 = r2.Record.outcome in
        checks "same verdict" o1.Solvability.o_verdict o2.Solvability.o_verdict;
        checki "same nodes" o1.Solvability.o_nodes o2.Solvability.o_nodes);
    Alcotest.test_case "exhausted outcomes are never persisted" `Quick (fun () ->
        let st = Engine.open_store (temp_dir "wfc-store") in
        let t = Instances.binary_consensus ~procs:2 in
        match
          Engine.answer (Some st)
            ~opts:(Solvability.options ~budget:1 ())
            ~spec:consensus ~max_level:1 t
        with
        | Ok (Engine.Stored _) -> Alcotest.fail "computed"
        | Error e -> Alcotest.fail (Engine.error_to_string e)
        | Ok (Engine.Computed { record; put_s; _ }) ->
          checks "exhausted" "exhausted" record.Record.outcome.Solvability.o_verdict;
          checkb "nothing filed" true (put_s = 0.);
          checkb "nothing on disk" false
            (Sys.file_exists
               (Engine.path_of st ~digest:(Task.digest t) ~model:"wait-free" ~max_level:1));
          checkb "nothing found" true
            (Engine.find st ~digest:(Task.digest t) ~model:"wait-free" ~max_level:1 ~budget:1
            = None));
    (* A Solvable whose map was tampered with after the search is refused
       at filing: an error, and no record on disk. The untampered map of
       the same question files, so the refusal is the check's doing. *)
    Alcotest.test_case "unverified maps are never filed" `Quick (fun () ->
        let st = Engine.open_store (temp_dir "wfc-store") in
        let t = Instances.adaptive_renaming ~procs:2 ~names:3 in
        let opts = Solvability.options () in
        let spec = "renaming(procs=2,param=3)" in
        let path = Engine.path_of st ~digest:(Task.digest t) ~model:"wait-free" ~max_level:1 in
        match Solvability.solve ~opts ~max_level:1 t with
        | Solvability.Solvable { map; stats } ->
          let open Wfc_topology in
          let color = Chromatic.color t.Task.output in
          let v0 = List.hd (Complex.vertices (Chromatic.complex (Sds.complex map.Solvability.sds))) in
          (* an output vertex of another color than v0's image *)
          let wrong =
            List.find
              (fun w -> color w <> color (map.Solvability.decide v0))
              (Complex.vertices (Chromatic.complex t.Task.output))
          in
          let tampered =
            { map with Solvability.decide = (fun v -> if v = v0 then wrong else map.Solvability.decide v) }
          in
          (match
             Engine.file (Some st) ~opts ~spec ~max_level:1 t
               (Solvability.Solvable { map = tampered; stats })
           with
          | Error (Engine.Unverified reason) ->
            checkb "the reason names the vertex" true
              (String.starts_with
                 ~prefix:(Printf.sprintf "vertex %d: color not preserved" v0)
                 reason)
          | Ok _ -> Alcotest.fail "a tampered map was filed");
          checkb "nothing on disk" false (Sys.file_exists path);
          (match
             Engine.file (Some st) ~opts ~spec ~max_level:1 t (Solvability.Solvable { map; stats })
           with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Engine.error_to_string e));
          checkb "the genuine map is filed" true (Sys.file_exists path)
        | v -> Alcotest.failf "expected solvable, got %s" (Solvability.verdict_name v));
  ]

(* ------------------------------------------------------------------ *)
(* Daemon end to end                                                    *)
(* ------------------------------------------------------------------ *)

let temp_socket () =
  let path = Filename.temp_file "wfc" ".sock" in
  Sys.remove path;
  path

(* Start a daemon on fresh paths, run [f] against it, then shut it down
   through the protocol and join the daemon thread. *)
let with_daemon ?queue_capacity ?max_connections ?read_timeout_s ?log ?gate f =
  let socket = temp_socket () in
  let store_dir = temp_dir "wfc-daemon-store" in
  let ready = Atomic.make false in
  let cfg =
    {
      (Daemon.config ?queue_capacity ?max_connections ?read_timeout_s ?log ~socket ~store_dir ())
      with
      Daemon.on_ready = Some (fun () -> Atomic.set ready true);
      gate;
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
  Fun.protect ~finally (fun () -> f ~socket ~store_dir)

let connect_exn socket =
  match Client.connect ~socket with Ok c -> c | Error e -> Alcotest.fail e

let query_exn c spec =
  match Client.query c spec with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* The [server] block of a fresh [stats] request. *)
let server_block socket =
  let c = connect_exn socket in
  let r = Client.stats c in
  Client.close c;
  match r with
  | Ok (_, Some s) -> s
  | Ok (_, None) -> Alcotest.fail "expected a server block"
  | Error e -> Alcotest.fail e

let server_int s k =
  match Wfc_obs.Json.member k s with
  | Some (Wfc_obs.Json.Int i) -> i
  | _ -> Alcotest.failf "server block without %s" k

let memo_field s k =
  match Option.bind (Wfc_obs.Json.member "task_memo" s) (Wfc_obs.Json.member k) with
  | Some (Wfc_obs.Json.Int i) -> i
  | _ -> Alcotest.failf "server block without task_memo.%s" k

let solver_field s k =
  match Wfc_obs.Json.member "solver" s with
  | Some solver -> Wfc_obs.Json.member k solver
  | None -> Alcotest.fail "server block without solver"

(* Polls [p] until it holds or 10 s pass; returns its last value. *)
let eventually p =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    p ()
    || Unix.gettimeofday () < deadline
       && begin
         Thread.delay 0.005;
         go ()
       end
  in
  go ()

let spec_b =
  {
    Wire.task = "set-consensus";
    procs = 3;
    param = 2;
    max_level = 1;
    model = "wait-free";
    symmetry = true;
    collapse = true;
  }

(* A gate that holds the solver inside its first computation until
   [release] is called (or 10 s pass); [entered] turns true once it holds. *)
let holding_gate () =
  let entered = Atomic.make false and released = Atomic.make false in
  let gate _digest =
    if not (Atomic.exchange entered true) then begin
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (not (Atomic.get released)) && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done
    end
  in
  (gate, entered, fun () -> Atomic.set released true)

(* Runs [f] on [n] connections that send nothing (raw sockets, no
   framing), each paired with an idempotent close. Any still open when [f]
   returns or fails is closed then, so a failed check cannot leave the
   daemon's connections held and its shutdown waiting behind them. *)
let with_silent socket n f =
  let conns =
    Array.init n (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        let is_open = ref true in
        ( fd,
          fun () ->
            if !is_open then begin
              is_open := false;
              Unix.close fd
            end ))
  in
  Fun.protect ~finally:(fun () -> Array.iter (fun (_, close) -> close ()) conns) (fun () ->
      f conns)

(* Connects, writes [bytes] with no framing of ours, and closes. *)
let send_raw socket bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      ignore (Unix.write_substring fd bytes 0 (String.length bytes)))

(* Asks [spec] on a fresh connection from a thread of its own; the result
   cell turns [Some] once an answer (or a transport error) arrives, so a
   daemon that never answers fails a bounded wait instead of hanging. *)
let ask_async socket spec =
  let out = Atomic.make None in
  let ask () =
    Atomic.set out
      (Some
         (match Client.connect ~socket with
         | Error e -> Error e
         | Ok c ->
           let r = Client.query c spec in
           Client.close c;
           r))
  in
  ignore (Thread.create ask ());
  out

(* Waits (bounded) for an [ask_async] cell to fill, and requires a verdict. *)
let check_answered name answer =
  checkb name true (eventually (fun () -> Atomic.get answer <> None));
  match Atomic.get answer with
  | Some (Ok (Wire.Verdict _)) -> ()
  | Some (Error e) -> Alcotest.fail e
  | _ -> Alcotest.fail "expected a verdict"

let connections_field s k =
  match Option.bind (Wfc_obs.Json.member "connections" s) (Wfc_obs.Json.member k) with
  | Some (Wfc_obs.Json.Int i) -> i
  | _ -> Alcotest.failf "server block without connections.%s" k

(* Runs [f] on a thread of its own and waits up to [s] seconds for it:
   [Some] of what it returned or raised, [None] if it is still running. *)
let within s f =
  let out = Atomic.make None in
  let run () = Atomic.set out (Some (try Ok (f ()) with e -> Error (Printexc.to_string e))) in
  ignore (Thread.create run ());
  let deadline = Unix.gettimeofday () +. s in
  while Option.is_none (Atomic.get out) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Atomic.get out

(* Frames decoded by the daemon so far: every frame it reads is timed in
   the decode stage, whatever its request. *)
let frames_decoded () =
  match List.assoc_opt "serve.stage.decode.seconds" (Wfc_obs.Metrics.histograms_now ()) with
  | Some h -> h.Wfc_obs.Metrics.count
  | None -> 0

let check_verdict ?source name spec r =
  match r with
  | Some (Wire.Verdict { source = got; record; _ }) ->
    (match source with
    | Some want -> checks (name ^ " source") (Wire.source_name want) (Wire.source_name got)
    | None -> ());
    checks (name ^ " equals inline solve")
      (json_str (Record.verdict_json (inline_record spec)))
      (json_str (Record.verdict_json record))
  | _ -> Alcotest.fail ("expected a verdict for " ^ name)

let daemon_tests =
  [
    Alcotest.test_case "cold query computes, warm query hits the store" `Quick (fun () ->
        with_daemon (fun ~socket ~store_dir:_ ->
            let c = connect_exn socket in
            checkb "ping" true (Client.ping c);
            let reference = json_str (Record.verdict_json (inline_record default_spec)) in
            (match query_exn c default_spec with
            | Wire.Verdict { source = Wire.Computed; record; req_id; timing } ->
              checks "cold equals inline solve" reference (json_str (Record.verdict_json record));
              checkb "daemon assigned a req_id" true (req_id <> None);
              (match timing with
              | None -> Alcotest.fail "expected a timing breakdown"
              | Some t ->
                checkb "total covers the stages" true
                  (t.Wire.total_s >= t.Wire.solve_s
                  && t.Wire.total_s >= 0.
                  && t.Wire.queue_wait_s >= 0.
                  && t.Wire.store_s >= 0.);
                checkb "a cold query actually solved" true (t.Wire.solve_s > 0.))
            | _ -> Alcotest.fail "expected a computed verdict");
            (match query_exn c default_spec with
            | Wire.Verdict { source = Wire.From_store; record; timing; _ } ->
              checks "warm equals inline solve" reference (json_str (Record.verdict_json record));
              (match timing with
              | None -> Alcotest.fail "expected a timing breakdown"
              | Some t ->
                (* a store hit never waits in the solve queue *)
                checkb "no queue wait on a hit" true (t.Wire.queue_wait_s = 0.);
                checkb "no solve on a hit" true (t.Wire.solve_s = 0.))
            | _ -> Alcotest.fail "expected a store hit");
            Client.close c));
    Alcotest.test_case "client req_id is echoed; ping and stats carry telemetry" `Quick
      (fun () ->
        with_daemon (fun ~socket ~store_dir:_ ->
            let c = connect_exn socket in
            (match Client.ping_info c with
            | Ok (Some v, Some u) ->
              checks "daemon version" Daemon.version v;
              checkb "uptime is sane" true (u >= 0.)
            | Ok _ -> Alcotest.fail "expected version and uptime in pong"
            | Error e -> Alcotest.fail e);
            (match Client.query ~req_id:"test-echo-1" c default_spec with
            | Ok (Wire.Verdict { req_id = Some id; _ }) -> checks "echoed" "test-echo-1" id
            | Ok _ -> Alcotest.fail "expected the verdict to echo the req_id"
            | Error e -> Alcotest.fail e);
            (match Client.stats c with
            | Error e -> Alcotest.fail e
            | Ok (metrics, server) -> (
              checkb "metrics has counters" true
                (Wfc_obs.Json.member "counters" metrics <> None);
              match server with
              | None -> Alcotest.fail "expected a server block"
              | Some s ->
                (match Wfc_obs.Json.member "version" s with
                | Some (Wfc_obs.Json.String v) -> checks "server version" Daemon.version v
                | _ -> Alcotest.fail "server block without version");
                (match Wfc_obs.Json.member "solver" s with
                | Some solver ->
                  (match Wfc_obs.Json.member "state" solver with
                  | Some (Wfc_obs.Json.String st) -> checks "solver idle" "idle" st
                  | _ -> Alcotest.fail "solver without state");
                  checkb "no digest while idle" true
                    (Wfc_obs.Json.member "digest" solver = None);
                  (match Wfc_obs.Json.member "jobs" solver with
                  | Some (Wfc_obs.Json.Int n) -> checki "one computation" 1 n
                  | _ -> Alcotest.fail "solver without jobs")
                | None -> Alcotest.fail "server block without solver");
                checkb "no per-worker array" true (Wfc_obs.Json.member "workers" s = None);
                (match Wfc_obs.Json.member "queue_depth" s with
                | Some (Wfc_obs.Json.Int d) -> checkb "queue drained" true (d = 0)
                | _ -> Alcotest.fail "server block without queue_depth")));
            Client.close c));
    Alcotest.test_case "the event log records the request lifecycle" `Quick (fun () ->
        let log_file = Filename.temp_file "wfc-daemon" ".log" in
        let socket = temp_socket () in
        let store_dir = temp_dir "wfc-daemon-store" in
        let ready = Atomic.make false in
        let cfg =
          {
            (Daemon.config ~log:log_file ~log_level:Wfc_obs.Log.Debug ~slow_ms:0.
               ~socket ~store_dir ())
            with
            Daemon.on_ready = Some (fun () -> Atomic.set ready true);
          }
        in
        let daemon = Thread.create Daemon.run cfg in
        while not (Atomic.get ready) do
          Thread.yield ()
        done;
        let c = connect_exn socket in
        (match Client.query ~req_id:"log-test-1" c default_spec with
        | Ok (Wire.Verdict _) -> ()
        | _ -> Alcotest.fail "expected a verdict");
        (* a raw model name: the log must carry the canonical one the
           record files under, not the client's bytes *)
        (match
           Client.query ~req_id:"log-test-2" c { default_spec with Wire.model = "  k-set:2  " }
         with
        | Ok (Wire.Verdict _) -> ()
        | _ -> Alcotest.fail "expected a verdict for the raw model name");
        Client.close c;
        (match Client.connect ~socket with
        | Ok c ->
          ignore (Client.shutdown c);
          Client.close c
        | Error e -> Alcotest.fail e);
        Thread.join daemon;
        let contents = In_channel.with_open_bin log_file In_channel.input_all in
        (match Wfc_obs.Log.validate contents with
        | Ok n -> checkb "several events" true (n >= 4)
        | Error e -> Alcotest.fail ("log does not validate: " ^ e));
        let has needle =
          let nl = String.length needle and cl = String.length contents in
          let rec at i = i + nl <= cl && (String.sub contents i nl = needle || at (i + 1)) in
          at 0
        in
        List.iter
          (fun event ->
            checkb (event ^ " logged") true (has (Printf.sprintf "\"event\":\"%s\"" event)))
          [ "serve.start"; "query"; "slow_query"; "serve.stop" ];
        checkb "req_id stamped" true (has "\"req_id\":\"log-test-1\"");
        let models_logged event =
          List.filter_map
            (fun line ->
              match Wfc_obs.Json.parse line with
              | Ok j
                when Wfc_obs.Json.member "event" j = Some (Wfc_obs.Json.String event)
                     && Wfc_obs.Json.member "req_id" j
                        = Some (Wfc_obs.Json.String "log-test-2") ->
                Some (Wfc_obs.Json.member "model" j)
              | _ -> None)
            (String.split_on_char '\n' contents)
        in
        List.iter
          (fun event ->
            checkb (event ^ " logs the canonical model") true
              (models_logged event = [ Some (Wfc_obs.Json.String "k-set:2") ]))
          [ "query"; "slow_query" ];
        Sys.remove log_file);
    Alcotest.test_case "a cold solve writes no SDS skeleton files" `Quick (fun () ->
        (* a fresh subdivision, not an in-process memo hit: a daemon that
           persisted skeletons would file one for level 1 here *)
        Wfc_topology.Sds.clear_cache ();
        with_daemon (fun ~socket ~store_dir ->
            let c = connect_exn socket in
            (match query_exn c default_spec with
            | Wire.Verdict { source = Wire.Computed; _ } -> ()
            | _ -> Alcotest.fail "expected a computed verdict");
            Client.close c;
            let { Engine.records; skeletons } = Engine.ls (Engine.open_store store_dir) in
            checki "one record" 1 (List.length records);
            checki "no skeletons" 0 skeletons));
    Alcotest.test_case "a repeated question reuses the memoized task" `Quick (fun () ->
        with_daemon (fun ~socket ~store_dir:_ ->
            let hits0 = counter_value "serve.task_memo.hits" in
            let c = connect_exn socket in
            let verdict () =
              match query_exn c default_spec with
              | Wire.Verdict { record; _ } -> json_str (Record.verdict_json record)
              | _ -> Alcotest.fail "expected a verdict"
            in
            let cold = verdict () in
            let warm = verdict () in
            Client.close c;
            checks "same verdict bytes" cold warm;
            checki "one memo hit" (hits0 + 1) (counter_value "serve.task_memo.hits");
            checki "one task memoized" 1 (memo_field (server_block socket) "size");
            (* the solver memos are reported as they stand (the wire sorts
               the keys): the daemon shares this process's tables, and its
               solver is idle now *)
            let solver_memo =
              match Wfc_obs.Json.member "solver_memo" (server_block socket) with
              | Some (Wfc_obs.Json.Obj kv) ->
                List.map
                  (function n, Wfc_obs.Json.Int i -> (n, i) | n, _ -> Alcotest.failf "%s" n)
                  kv
              | _ -> Alcotest.fail "server block without solver_memo"
            in
            checkb "solver memo sizes" true
              (solver_memo = List.sort compare (Solvability.memo_sizes ()));
            checkb "the solve filled the setup memo" true (List.assoc "setup" solver_memo > 0)));
    Alcotest.test_case "failed task builds are not memoized" `Quick (fun () ->
        with_daemon (fun ~socket ~store_dir:_ ->
            let c = connect_exn socket in
            let size0 = memo_field (server_block socket) "size" in
            let failure spec =
              match query_exn c spec with
              | Wire.Failed msg -> msg
              | _ -> Alcotest.fail "expected an error response"
            in
            List.iter
              (fun (name, spec) ->
                let first = failure spec in
                checks (name ^ " fails the same way twice") first (failure spec))
              [
                ("unknown task", { default_spec with Wire.task = "no-such-task" });
                ("0-set consensus", { spec_b with Wire.param = 0 });
              ];
            Client.close c;
            checki "memo size unchanged" size0 (memo_field (server_block socket) "size")));
    Alcotest.test_case "the task memo is bounded" `Quick (fun () ->
        (* loop-disk ignores procs and param, so every key builds the same
           small task and, after the first solve, hits the store *)
        with_daemon (fun ~socket ~store_dir:_ ->
            let capacity = memo_field (server_block socket) "capacity" in
            let c = connect_exn socket in
            for param = 1 to capacity + 5 do
              let spec =
                { spec_b with Wire.task = "loop-disk"; param; max_level = 0 }
              in
              match query_exn c spec with
              | Wire.Verdict _ -> ()
              | _ -> Alcotest.failf "expected a verdict for loop-disk param %d" param
            done;
            Client.close c;
            checki "size is the capacity" capacity
              (memo_field (server_block socket) "size")));
    Alcotest.test_case "concurrent identical queries coalesce" `Quick (fun () ->
        (* The gate holds the solver inside the first job until we have seen
           the twin query coalesce, making the race deterministic. *)
        let gate_m = Mutex.create () in
        let gate_cv = Condition.create () in
        let gate_open = ref false in
        let gate _digest =
          Mutex.lock gate_m;
          while not !gate_open do
            Condition.wait gate_cv gate_m
          done;
          Mutex.unlock gate_m
        in
        let coalesced0 = counter_value "serve.coalesced" in
        let misses0 = counter_value "serve.misses" in
        with_daemon ~gate (fun ~socket ~store_dir:_ ->
            let reference = json_str (Record.verdict_json (inline_record default_spec)) in
            let ask () =
              let c = connect_exn socket in
              let r = query_exn c default_spec in
              Client.close c;
              r
            in
            let ra = ref None and rb = ref None in
            let a = Thread.create (fun () -> ra := Some (ask ())) () in
            let b = Thread.create (fun () -> rb := Some (ask ())) () in
            (* both questions are in: one admitted as the miss, one attached *)
            while counter_value "serve.coalesced" - coalesced0 < 1 do
              Thread.yield ()
            done;
            Mutex.lock gate_m;
            gate_open := true;
            Condition.broadcast gate_cv;
            Mutex.unlock gate_m;
            Thread.join a;
            Thread.join b;
            let results = [ Option.get !ra; Option.get !rb ] in
            let sources =
              List.map
                (function
                  | Wire.Verdict { source; record; _ } ->
                    checks "coalesced equals inline solve" reference
                      (json_str (Record.verdict_json record));
                    Wire.source_name source
                  | _ -> Alcotest.fail "expected verdicts")
                results
            in
            checkb "one computed, one coalesced" true
              (List.sort compare sources = [ "coalesced"; "computed" ]);
            checki "exactly one solve" 1 (counter_value "serve.misses" - misses0);
            checki "exactly one coalesce" 1 (counter_value "serve.coalesced" - coalesced0)));
    Alcotest.test_case "a full queue sheds instead of buffering" `Quick (fun () ->
        let shed0 = counter_value "serve.shed" in
        with_daemon ~queue_capacity:0 (fun ~socket ~store_dir ->
            let c = connect_exn socket in
            (match query_exn c default_spec with
            | Wire.Shed -> ()
            | _ -> Alcotest.fail "expected shed with a zero-capacity queue");
            checki "shed counted" 1 (counter_value "serve.shed" - shed0);
            (* shedding is about work, not answers: a store hit still serves *)
            let st = Engine.open_store store_dir in
            Engine.put st (inline_record default_spec);
            (match query_exn c default_spec with
            | Wire.Verdict { source = Wire.From_store; _ } -> ()
            | _ -> Alcotest.fail "expected a store hit despite the full queue");
            Client.close c));
    Alcotest.test_case "a distinct cold query waits in the queue" `Quick (fun () ->
        (* One solver: while it is held inside the first question, a second
           distinct question is admitted and waits queued, then is solved
           once the first is done. *)
        let gate, entered, release = holding_gate () in
        with_daemon ~gate (fun ~socket ~store_dir:_ ->
            let ask spec out =
              let c = connect_exn socket in
              out := Some (query_exn c spec);
              Client.close c
            in
            let ra = ref None and rb = ref None in
            let a = Thread.create (fun () -> ask default_spec ra) () in
            checkb "solver holds the first question" true
              (eventually (fun () -> Atomic.get entered));
            let b = Thread.create (fun () -> ask spec_b rb) () in
            checkb "second question queued" true
              (eventually (fun () -> server_int (server_block socket) "queue_depth" = 1));
            let s = server_block socket in
            checkb "solver is solving" true
              (solver_field s "state" = Some (Wfc_obs.Json.String "solving"));
            checki "one question in flight per client" 2 (server_int s "inflight");
            release ();
            Thread.join a;
            Thread.join b;
            check_verdict ~source:Wire.Computed "consensus" default_spec !ra;
            check_verdict ~source:Wire.Computed "set-consensus" spec_b !rb;
            checkb "solver finished both" true
              (solver_field (server_block socket) "jobs" = Some (Wfc_obs.Json.Int 2))));
    Alcotest.test_case "shutdown drains every in-flight solve job" `Quick (fun () ->
        (* Hold the solver inside one job with a second one queued, request
           shutdown, then release: both clients must still get verdicts. *)
        let gate, entered, release = holding_gate () in
        with_daemon ~gate (fun ~socket ~store_dir:_ ->
            let ask spec out =
              let c = connect_exn socket in
              out := Some (query_exn c spec);
              Client.close c
            in
            let ra = ref None and rb = ref None in
            let a = Thread.create (fun () -> ask default_spec ra) () in
            checkb "solver holds the first question" true
              (eventually (fun () -> Atomic.get entered));
            let b = Thread.create (fun () -> ask spec_b rb) () in
            checkb "one solving, one queued before shutdown" true
              (eventually (fun () -> server_int (server_block socket) "queue_depth" = 1));
            (match Client.connect ~socket with
            | Ok c ->
              ignore (Client.shutdown c);
              Client.close c
            | Error e -> Alcotest.fail e);
            release ();
            Thread.join a;
            Thread.join b;
            check_verdict "consensus" default_spec !ra;
            check_verdict "set-consensus" spec_b !rb));
    Alcotest.test_case "concurrent clients match inline solves" `Quick (fun () ->
        (* Eight client threads ask eight distinct catalogue questions at
           once, from cold caches: handler threads intern simplices while
           the solver subdivides. Every answer must be byte-identical to an
           inline solve made afterwards. *)
        let specs =
          List.map
            (fun (task, procs, param) -> { default_spec with Wire.task; procs; param })
            [
              ("consensus", 2, 2);
              ("consensus", 3, 2);
              ("set-consensus", 3, 2);
              ("renaming", 2, 3);
              ("approx", 2, 3);
              ("identity", 3, 2);
              ("tas", 2, 1);
              ("fai", 2, 2);
            ]
        in
        Wfc_topology.Sds.clear_cache ();
        let answers =
          with_daemon (fun ~socket ~store_dir:_ ->
              let results = Array.make (List.length specs) None in
              let threads =
                List.mapi
                  (fun i spec ->
                    Thread.create
                      (fun () ->
                        let c = connect_exn socket in
                        results.(i) <- Some (query_exn c spec);
                        Client.close c)
                      ())
                  specs
              in
              List.iter Thread.join threads;
              results)
        in
        List.iteri
          (fun i spec ->
            check_verdict ~source:Wire.Computed
              (Printf.sprintf "%s/%d/%d" spec.Wire.task spec.Wire.procs spec.Wire.param)
              spec answers.(i))
          specs);
    Alcotest.test_case "daemon answers persist for later inline queries" `Quick (fun () ->
        let captured = ref None in
        let dir =
          with_daemon (fun ~socket ~store_dir ->
              let c = connect_exn socket in
              (match query_exn c default_spec with
              | Wire.Verdict { record; _ } -> captured := Some record
              | _ -> Alcotest.fail "expected a verdict");
              Client.close c;
              store_dir)
        in
        (* daemon is gone; the record it filed outlives it *)
        let st = Engine.open_store dir in
        let r = Option.get !captured in
        match Engine.find st ~digest:r.Record.digest ~model:"wait-free" ~max_level:1 ~budget:r.Record.budget with
        | Some r' ->
          checks "same bytes after daemon death" (json_str (Record.verdict_json r))
            (json_str (Record.verdict_json r'))
        | None -> Alcotest.fail "record did not survive the daemon");
    Alcotest.test_case "a record filed while its job waits in the queue is served without a solve"
      `Quick (fun () ->
        (* Hold the solver inside the first question while a second one
           waits queued; file the second one's record through another
           handle (as an inline [wfc query --store] beside the daemon
           would), then let the solver reach it — held once more, so the
           counters are read after the first solve and before the second
           lookup. *)
        let first, entered_a, release_a = holding_gate () in
        let second, entered_b, release_b = holding_gate () in
        let gate digest = if Atomic.get entered_a then second digest else first digest in
        with_daemon ~gate (fun ~socket ~store_dir ->
            let ask spec out =
              let c = connect_exn socket in
              out := Some (query_exn c spec);
              Client.close c
            in
            let ra = ref None and rb = ref None in
            let a = Thread.create (fun () -> ask default_spec ra) () in
            checkb "solver holds the first question" true
              (eventually (fun () -> Atomic.get entered_a));
            let b = Thread.create (fun () -> ask spec_b rb) () in
            checkb "second question queued" true
              (eventually (fun () -> server_int (server_block socket) "queue_depth" = 1));
            let filed = inline_record spec_b in
            Engine.put (Engine.open_store store_dir) filed;
            release_a ();
            Thread.join a;
            checkb "solver reached the queued question" true
              (eventually (fun () -> Atomic.get entered_b));
            let nodes0 = counter_value "solvability.nodes"
            and hits0 = counter_value "solvability.store.hits" in
            release_b ();
            Thread.join b;
            (match !rb with
            | Some (Wire.Verdict { record; _ }) ->
              checks "verdict bytes are the filed record's"
                (json_str (Record.verdict_json filed))
                (json_str (Record.verdict_json record));
              checks "the filed record itself, timestamps included"
                (json_str (Record.record_to_json filed))
                (json_str (Record.record_to_json record))
            | _ -> Alcotest.fail "expected a verdict for the queued question");
            checki "no search ran" 0 (counter_value "solvability.nodes" - nodes0);
            checki "one store hit" 1 (counter_value "solvability.store.hits" - hits0)));
    Alcotest.test_case "stage histograms add up to serve.latency" `Quick (fun () ->
        (* [serve.latency] runs from the decoded request to the response
           about to be encoded; the stages inside it are task, admission,
           queue_wait, solve and store_put. What no stage covers (the
           solver's re-lookup and record build, the handler's wake-up)
           must stay under 10% of the latency plus 100 us. Scheduling
           noise only ever widens the gap, so each kind of query gets the
           best of three tries. *)
        let stages = [ "task"; "admission"; "queue_wait"; "solve"; "store_put" ] in
        let sums () =
          let h = Wfc_obs.Metrics.histograms_now () in
          fun name ->
            match List.assoc_opt name h with
            | Some s -> s.Wfc_obs.Metrics.sum
            | None -> 0.
        in
        with_daemon (fun ~socket ~store_dir:_ ->
            let measure spec =
              let before = sums () in
              let c = connect_exn socket in
              ignore (query_exn c spec);
              Client.close c;
              let after = sums () in
              let delta name = after name -. before name in
              let staged =
                List.fold_left
                  (fun acc stage -> acc +. delta ("serve.stage." ^ stage ^ ".seconds"))
                  0. stages
              in
              (staged, delta "serve.latency.seconds")
            in
            let gap (staged, latency) = Float.abs (latency -. staged) -. (0.1 *. latency) in
            let within name specs =
              let tries = List.map measure specs in
              let best = List.fold_left (fun acc t -> min acc (gap t)) infinity tries in
              if best > 100e-6 then
                Alcotest.failf "%s: stage sums %s miss serve.latency by more than the tolerance"
                  name
                  (String.concat "; "
                     (List.map
                        (fun (staged, latency) ->
                          Printf.sprintf "%.0f us of %.0f us" (staged *. 1e6) (latency *. 1e6))
                        tries))
            in
            let cold = List.map (fun l -> { default_spec with Wire.max_level = l }) [ 0; 1; 2 ] in
            within "cold" cold;
            within "warm" [ default_spec; default_spec; default_spec ]));
    Alcotest.test_case "the connection count is bounded" `Quick (fun () ->
        (* Cap 2, three silent connections: two are accepted and the third
           waits in the listen backlog, as does a fourth client's query
           behind it, until two of them close. *)
        let accepted0 = counter_value "serve.connections.accepted" in
        let accepted () = counter_value "serve.connections.accepted" - accepted0 in
        with_daemon ~max_connections:2 ~read_timeout_s:5. (fun ~socket ~store_dir:_ ->
            with_silent socket 3 @@ fun conns ->
            checkb "two accepted" true (eventually (fun () -> accepted () >= 2));
            Thread.delay 0.2;
            checki "no third accepted" 2 (accepted ());
            let answer = ask_async socket default_spec in
            Thread.delay 0.3;
            checkb "the fourth client waits while two are open" true
              (Atomic.get answer = None);
            (* closing the first frees a slot for the backlogged third,
               already closed, and then for the fourth *)
            snd conns.(2) ();
            snd conns.(0) ();
            check_answered "the fourth client is answered" answer;
            let s = server_block socket in
            checki "capacity" 2 (connections_field s "capacity");
            checkb "open within the cap" true (connections_field s "open" <= 2)));
    Alcotest.test_case "a stalled frame header stalls no one" `Quick (fun () ->
        (* A connection sends two bytes of a header and stops. The loop
           must not wait for the rest before it serves anyone else. *)
        with_daemon (fun ~socket ~store_dir:_ ->
            with_silent socket 1 @@ fun conns ->
            let stalled, _ = conns.(0) in
            ignore (Unix.write_substring stalled (frame_header 20l) 0 2);
            Thread.delay 0.1;
            let answered =
              within 1. (fun () ->
                  let c = connect_exn socket in
                  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                      (Client.ping c, query_exn c default_spec)))
            in
            match answered with
            | Some (Ok (true, Wire.Verdict _)) -> ()
            | Some (Ok _) -> Alcotest.fail "expected a pong and a verdict"
            | Some (Error e) -> Alcotest.fail e
            | None -> Alcotest.fail "a ping and a query waited over 1 s behind a stalled header"));
    Alcotest.test_case "a silent connection is closed after the read timeout" `Quick
      (fun () ->
        with_daemon ~max_connections:1 ~read_timeout_s:0.2 (fun ~socket ~store_dir:_ ->
            with_silent socket 1 @@ fun conns ->
            let silent, close = conns.(0) in
            let t0 = Unix.gettimeofday () in
            (match Unix.select [ silent ] [] [] 5.0 with
            | [ _ ], _, _ ->
              checki "the client reads EOF" 0 (Unix.read silent (Bytes.create 1) 0 1)
            | _ -> Alcotest.fail "a silent connection is still open after 5 s");
            checkb "closed by the timeout, not at once" true
              (Unix.gettimeofday () -. t0 >= 0.1);
            close ();
            check_answered "the one connection slot then serves a query"
              (ask_async socket default_spec)));
    Alcotest.test_case "bad frames are counted and logged; a clean close is not" `Quick
      (fun () ->
        (* with one connection slot the connections are served in order,
           so all three are read before the shutdown request behind them *)
        let log_file = Filename.temp_file "wfc-daemon" ".log" in
        let errors0 = counter_value "serve.errors" in
        with_daemon ~max_connections:1 ~log:log_file (fun ~socket ~store_dir:_ ->
            List.iter (send_raw socket)
              [
                "";
                frame_header (Int32.of_int (Wire.max_frame + 1));
                frame_header 64l ^ "{\"op\"";
              ]);
        checki "two errors" 2 (counter_value "serve.errors" - errors0);
        let reasons =
          List.filter_map
            (fun line ->
              match Wfc_obs.Json.parse line with
              | Ok j when Wfc_obs.Json.member "event" j = Some (Wfc_obs.Json.String "request.error")
                ->
                Wfc_obs.Json.member "message" j
              | _ -> None)
            (String.split_on_char '\n' (In_channel.with_open_bin log_file In_channel.input_all))
        in
        Sys.remove log_file;
        checkb "two request.error lines with their reasons" true
          (reasons
          = [
              Wfc_obs.Json.String
                (Printf.sprintf "frame length %d out of bounds" (Wire.max_frame + 1));
              Wfc_obs.Json.String "truncated frame payload";
            ]));
    Alcotest.test_case "a daemon fed 50 garbage connections still answers" `Quick (fun () ->
        let garbage =
          QCheck2.Gen.generate ~rand:(Random.State.make [| 50 |]) ~n:50 truncated_frame_gen
        in
        with_daemon (fun ~socket ~store_dir:_ ->
            List.iter (send_raw socket) garbage;
            let c = connect_exn socket in
            checkb "ping" true (Client.ping c);
            (match query_exn c default_spec with
            | Wire.Verdict _ -> ()
            | _ -> Alcotest.fail "expected a verdict");
            Client.close c));
    Alcotest.test_case "a client that never reads stalls no one" `Quick (fun () ->
        (* A connection writes 200 stats requests and reads nothing. Its
           answers fill the socket (about 90 of them when this test runs
           alone and an answer is under 1 KiB); the daemon then holds one
           unwritten answer and decodes no further frame of it, and
           another client's ping is still answered. *)
        let sent = 200 in
        with_daemon (fun ~socket ~store_dir:_ ->
            with_silent socket 1 @@ fun conns ->
            let greedy, _ = conns.(0) in
            let frame = Bytes.to_string (Wire.frame_bytes (Wire.request_to_json Wire.Stats)) in
            let requests = String.concat "" (List.init sent (fun _ -> frame)) in
            let decoded0 = frames_decoded () in
            ignore (Unix.write_substring greedy requests 0 (String.length requests));
            (match within 1. (fun () ->
                       let c = connect_exn socket in
                       Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.ping c))
             with
            | Some (Ok true) -> ()
            | Some _ -> Alcotest.fail "expected a pong"
            | None -> Alcotest.fail "a ping waited over 1 s behind a client that never reads");
            (* the ping above was one frame; wait until the count settles *)
            let rec settled last =
              Thread.delay 0.1;
              let now = frames_decoded () in
              if now = last then now else settled now
            in
            let decoded = settled (frames_decoded ()) - decoded0 - 1 in
            (* Each decoded request but the last has its answer written to
               the socket, whose send buffer bounds what it holds (twice
               over, for the kernel's rounding); the last one's answer is
               the one the daemon holds. *)
            let header = Bytes.create 4 in
            ignore (Unix.recv greedy header 0 4 [ Unix.MSG_PEEK ]);
            let answer_bytes = 4 + Int32.to_int (Bytes.get_int32_be header 0) in
            let sndbuf = Unix.getsockopt_int greedy Unix.SO_SNDBUF in
            checkb
              (Printf.sprintf "%d requests decoded; %d-byte answers, a %d-byte send buffer"
                 decoded answer_bytes sndbuf)
              true
              (decoded < sent && (decoded - 1) * answer_bytes <= 2 * sndbuf);
            (* reading now lets every answer through, in order *)
            match
              within 10. (fun () ->
                  List.for_all
                    (fun _ ->
                      match Wire.read_frame greedy with
                      | Ok j -> (
                        match Wire.response_of_json j with Ok (Wire.Metrics _) -> true | _ -> false)
                      | Error _ -> false)
                    (List.init sent Fun.id))
            with
            | Some (Ok true) -> ()
            | _ -> Alcotest.fail "the stats answers did not all arrive"));
    Alcotest.test_case "a stopping daemon refuses new connects" `Quick (fun () ->
        (* While the gate holds a solve, a shutdown request closes the
           listening socket at once: a later connect fails instead of
           waiting in the backlog, and the held query is still answered. *)
        let gate, entered, release = holding_gate () in
        with_daemon ~gate (fun ~socket ~store_dir:_ ->
            let answer = ask_async socket default_spec in
            checkb "solver holds the question" true (eventually (fun () -> Atomic.get entered));
            let c = connect_exn socket in
            (match Client.shutdown c with Ok () -> () | Error e -> Alcotest.fail e);
            Client.close c;
            (match Client.connect ~socket with
            | Error _ -> ()
            | Ok c ->
              Client.close c;
              release ();
              Alcotest.fail "a connect after the shutdown request succeeded");
            release ();
            check_answered "the held query is answered" answer));
    Alcotest.test_case "a descriptor past select's limit is refused" `Quick (fun () ->
        (* With every descriptor below 1024 taken, the daemon accepts one
           that [select] cannot watch: it must close it, count it, and keep
           serving. *)
        with_daemon (fun ~socket ~store_dir:_ ->
            let errors0 = counter_value "serve.errors" in
            let fillers = ref [] in
            let rec fill () =
              let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
              fillers := fd :: !fillers;
              if (Obj.magic fd : int) < 1024 then fill ()
            in
            let high =
              Fun.protect
                ~finally:(fun () -> List.iter Unix.close !fillers)
                (fun () ->
                  (match fill () with
                  | () -> ()
                  | exception Unix.Unix_error (Unix.EMFILE, _, _) ->
                    Alcotest.skip ());
                  within 2. (fun () ->
                      let c = connect_exn socket in
                      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.ping c)))
            in
            (match high with
            | Some (Ok pong) -> checkb "the high descriptor got no answer" false pong
            | Some (Error e) -> Alcotest.fail e
            | None -> Alcotest.fail "the high descriptor was neither answered nor closed within 2 s");
            checkb "counted in serve.errors" true
              (eventually (fun () -> counter_value "serve.errors" - errors0 >= 1));
            let c = connect_exn socket in
            checkb "a later ping is answered" true (Client.ping c);
            Client.close c));
    Alcotest.test_case "SIGTERM stops a daemon at the handler cap within the tick" `Quick
      (fun () ->
        (* the one connection slot is held by a silent connection, far from
           its read timeout; [Daemon.run] installed the SIGTERM handler
           before [on_ready] *)
        let socket = temp_socket () in
        let ready = Atomic.make false and returned = Atomic.make false in
        let cfg =
          {
            (Daemon.config ~max_connections:1 ~read_timeout_s:5. ~socket
               ~store_dir:(temp_dir "wfc-daemon-store") ())
            with
            Daemon.on_ready = Some (fun () -> Atomic.set ready true);
          }
        in
        let daemon =
          Thread.create
            (fun () ->
              Daemon.run cfg;
              Atomic.set returned true)
            ()
        in
        while not (Atomic.get ready) do
          Thread.yield ()
        done;
        with_silent socket 1 (fun _ ->
            (* the loop accepts the silent connection within a tick *)
            Thread.delay 0.3;
            let t0 = Unix.gettimeofday () in
            Unix.kill (Unix.getpid ()) Sys.sigterm;
            while (not (Atomic.get returned)) && Unix.gettimeofday () -. t0 < 2. do
              Thread.delay 0.01
            done;
            checkb "Daemon.run returned within 2 s" true (Atomic.get returned));
        Thread.join daemon;
        checkb "the socket file is gone" false (Sys.file_exists socket));
    Alcotest.test_case "model parameters do not mint metric names" `Quick (fun () ->
        (* a client picks the model's parameter: 20 of them must not grow
           the registry (and every stats reply) by 20 names each *)
        let names prefix =
          let with_prefix l =
            List.filter (fun n -> String.starts_with ~prefix n) (List.map fst l)
          in
          List.length
            (with_prefix (Wfc_obs.Metrics.histograms_now ())
            @ with_prefix (Wfc_obs.Metrics.counters_now ()))
        in
        let latency = "serve.latency.model." and solves = "solvability.model." in
        let latency0 = names latency and solves0 = names solves in
        with_daemon (fun ~socket ~store_dir:_ ->
            let c = connect_exn socket in
            for k = 1 to 20 do
              let spec =
                { default_spec with Wire.max_level = 0; model = Printf.sprintf "k-set:%d" k }
              in
              match query_exn c spec with
              | Wire.Verdict _ -> ()
              | _ -> Alcotest.failf "expected a verdict for k-set:%d" k
            done;
            Client.close c);
        checkb "at most one new latency histogram" true (names latency - latency0 <= 1);
        checkb "at most one new solve counter" true (names solves - solves0 <= 1));
  ]

let () =
  Alcotest.run "wfc_serve"
    [
      ("wire", wire_tests);
      ("fuzz", fuzz_tests);
      ("store", store_tests);
      ("cached", cached_tests);
      ("daemon", daemon_tests);
    ]
