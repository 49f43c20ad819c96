(* bench/ladder.exe — the serve-ladder load harness (BENCH_serve_ladder.json).

   Phase-C-style protocol: for each rung of a concurrency ladder, an
   explicit warmup phase (unmeasured requests at that concurrency) followed
   by repeat-based measured runs; the recorded metrics are medians across
   repeats, and the report carries machine/git metadata so the numbers are
   reproducible. Defaults mirror the protocol this harness is modeled on:
   ladder 1,4,8,16,32 — warmup 30 requests x 1 repeat, measured 120
   requests x 3 repeats per rung.

   The daemon runs in-process (same pattern as bench/main.ml's serve
   scenarios) against a store primed with the one question every request
   asks, so the ladder measures the serving layer — socket, framing,
   admission, store hit — not the solver: a rung's throughput difference is
   scheduling and I/O, not search noise.

     dune exec bench/ladder.exe -- \
       [--rungs 1,4,8,16,32] [--repeats 3] [--requests 120] [--warmup 30] \
       [--log FILE] [--out BENCH_serve_ladder.json]

   Per-rung scenario extras: concurrency, requests, repeats, qps_median,
   latency_p50_s, latency_p95_s (latency percentiles are medians of the
   per-repeat percentiles). *)

let default_rungs = [ 1; 4; 8; 16; 32 ]

type opts = {
  mutable rungs : int list;
  mutable repeats : int;
  mutable requests : int;
  mutable warmup : int;
  mutable log : string option;
  mutable out : string;
}

let parse_argv () =
  let o =
    {
      rungs = default_rungs;
      repeats = 3;
      requests = 120;
      warmup = 30;
      log = None;
      out = "BENCH_serve_ladder.json";
    }
  in
  let usage () =
    prerr_endline
      "usage: ladder.exe [--rungs CSV] [--repeats N] [--requests N] [--warmup N]\n\
      \                  [--log FILE] [--out FILE]";
    exit 2
  in
  let int_of s = match int_of_string_opt s with Some n when n > 0 -> n | _ -> usage () in
  let rec go = function
    | [] -> o
    | "--rungs" :: v :: rest ->
      o.rungs <- List.map int_of (String.split_on_char ',' v);
      go rest
    | "--repeats" :: v :: rest ->
      o.repeats <- int_of v;
      go rest
    | "--requests" :: v :: rest ->
      o.requests <- int_of v;
      go rest
    | "--warmup" :: v :: rest ->
      o.warmup <- int_of v;
      go rest
    | "--log" :: v :: rest ->
      o.log <- Some v;
      go rest
    | "--out" :: v :: rest ->
      o.out <- v;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* ---- statistics ---- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let a = List.nth sorted ((n - 1) / 2) and b = List.nth sorted (n / 2) in
    (a +. b) /. 2.

(* nearest-rank percentile of a latency sample *)
let percentile p xs =
  let sorted = List.sort compare xs in
  match sorted with
  | [] -> 0.
  | _ ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(* ---- the in-process daemon ---- *)

let spec =
  {
    Wfc_serve.Wire.task = "set-consensus";
    procs = 3;
    param = 2;
    max_level = 1;
    model = "wait-free";
    symmetry = true;
    collapse = true;
  }

let ask ~socket =
  match Wfc_serve.Client.connect ~socket with
  | Error e -> failwith e
  | Ok c ->
    let r = Wfc_serve.Client.query c spec in
    Wfc_serve.Client.close c;
    (match r with
    | Ok (Wfc_serve.Wire.Verdict _) -> ()
    | Ok Wfc_serve.Wire.Shed -> failwith "ladder query was shed"
    | Ok _ -> failwith "unexpected daemon response"
    | Error e -> failwith e)

(* One burst: [threads] clients issuing [requests] queries total (split as
   evenly as the division allows, remainder spread over the first threads),
   a fresh connection per request — the CLI's traffic shape. Returns
   (elapsed seconds, per-request latencies). *)
let burst ~socket ~threads ~requests =
  let per = requests / threads and extra = requests mod threads in
  let latencies = Array.make threads [] in
  let t0 = Wfc_obs.Metrics.now_s () in
  let worker i =
    let n = per + if i < extra then 1 else 0 in
    let acc = ref [] in
    for _ = 1 to n do
      let q0 = Wfc_obs.Metrics.now_s () in
      ask ~socket;
      acc := (Wfc_obs.Metrics.now_s () -. q0) :: !acc
    done;
    latencies.(i) <- !acc
  in
  let ts = Array.init threads (fun i -> Thread.create worker i) in
  Array.iter Thread.join ts;
  let elapsed = Wfc_obs.Metrics.now_s () -. t0 in
  (elapsed, List.concat (Array.to_list latencies))

let () =
  let o = parse_argv () in
  let socket = Filename.temp_file "wfc-ladder" ".sock" in
  Sys.remove socket;
  let store_dir = Filename.temp_file "wfc-ladder-store" "" in
  Sys.remove store_dir;
  Unix.mkdir store_dir 0o755;
  let ready = Atomic.make false in
  let cfg =
    {
      (Wfc_serve.Daemon.config ~queue_capacity:256 ?log:o.log ~socket ~store_dir ())
      with
      Wfc_serve.Daemon.on_ready = Some (fun () -> Atomic.set ready true);
    }
  in
  let daemon = Thread.create Wfc_serve.Daemon.run cfg in
  while not (Atomic.get ready) do
    Thread.yield ()
  done;
  (* prime: the first query computes and persists the verdict; every
     measured request after it is a store hit *)
  ask ~socket;
  Printf.printf "%-12s %10s %12s %12s\n%!" "rung" "qps" "p50_ms" "p95_ms";
  let t_run0 = Wfc_obs.Metrics.now_s () in
  let scenarios =
    List.map
      (fun c ->
        let _ = burst ~socket ~threads:c ~requests:o.warmup in
        let repeats =
          List.init o.repeats (fun _ ->
              let elapsed, lats = burst ~socket ~threads:c ~requests:o.requests in
              ( float_of_int o.requests /. elapsed,
                percentile 50. lats,
                percentile 95. lats,
                elapsed ))
        in
        let qps = median (List.map (fun (q, _, _, _) -> q) repeats) in
        let p50 = median (List.map (fun (_, p, _, _) -> p) repeats) in
        let p95 = median (List.map (fun (_, _, p, _) -> p) repeats) in
        let seconds = median (List.map (fun (_, _, _, e) -> e) repeats) in
        Printf.printf "%-12s %10.0f %12.3f %12.3f\n%!"
          (Printf.sprintf "ladder_c%d" c)
          qps (p50 *. 1000.) (p95 *. 1000.);
        Wfc_obs.Report.scenario
          ~extra:
            [
              ("concurrency", Wfc_obs.Json.Int c);
              ("requests", Wfc_obs.Json.Int o.requests);
              ("repeats", Wfc_obs.Json.Int o.repeats);
              ("qps_median", Wfc_obs.Json.Float qps);
              ("latency_p50_s", Wfc_obs.Json.Float p50);
              ("latency_p95_s", Wfc_obs.Json.Float p95);
            ]
          (Printf.sprintf "ladder_c%d" c)
          seconds)
      o.rungs
  in
  let total_s = Wfc_obs.Metrics.now_s () -. t_run0 in
  (match Wfc_serve.Client.connect ~socket with
  | Ok c ->
    ignore (Wfc_serve.Client.shutdown c);
    Wfc_serve.Client.close c
  | Error _ -> ());
  Thread.join daemon;
  let overall =
    Wfc_obs.Report.scenario
      ~extra:
        [
          ("rungs", Wfc_obs.Json.Arr (List.map (fun c -> Wfc_obs.Json.Int c) o.rungs));
          ("warmup_requests", Wfc_obs.Json.Int o.warmup);
        ]
      "ladder" total_s
  in
  Wfc_obs.Report.write_file o.out
    (Wfc_obs.Report.to_json
       ~machine:(Wfc_obs.Report.machine_facts ())
       (scenarios @ [ overall ]));
  Printf.printf "wrote %s\n" o.out
