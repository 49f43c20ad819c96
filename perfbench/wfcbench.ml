(* The wfc serve benchmark. Normally started through run.py, which builds
   this program and the wfc CLI first:

     python3 perfbench/run.py --workload warm|cold|mixed --seed N --seconds S --trace 0|1

   Each run spawns [wfc serve] daemons at their defaults, drives them from
   this process with two closed-loop client threads (a fresh connection
   per request, like [wfc query]), checks every answer's verdict bytes
   against catalogue.json, and prints one JSON object as its last line:
   the end-to-end metrics with [--trace 0], the per-layer metrics with
   [--trace 1]. The seed decides draw orders and splits only; the daemons
   see nothing but the generated queries.

   Workloads (no traffic data exists for wfc; the mix parameters below are
   assumptions, chosen so that the figures are a property of the whole
   catalogue rather than of one question):
   - warm: store hits only. Set-up primes the whole catalogue through one
     daemon, then starts the measured daemon over that store (empty LRU, no
     solver memos). Every task instance gets the same share of requests,
     because the per-request task rebuild costs 0.1 to 11.5 ms by task (in
     process, on a 2-vCPU machine) and a share that followed one question
     would make the figures follow that question's task. Within an
     instance requests follow a Zipf law (s = 1) over its questions ranked
     simplest first: level 1 before level 2, then wait-free,
     t-resilient:1, k-set:2. Requests come in blocks of 400 whose exact
     counts are fixed and whose order the seed shuffles; the run prints
     each task's share.
   - cold: store misses only. Each pass starts a fresh daemon on an empty
     store and asks every question once, in seeded order. After each pass
     the same daemon answers every question again from its store; that
     read-back is checked and feeds hit_latency_p90_ms only.
   - mixed: reads beside writes. Set-up primes three seeded splits of the
     catalogue into halves (one level of each task and model per half),
     each half into a store of its own. A round starts a fresh daemon over
     a copy of one half's store and asks every primed question four times
     and every unprimed question once, shuffled: about four in five
     requests are hits, and every question of a half is asked equally
     often. Every fourth unprimed question is asked by both clients at
     once, so each round coalesces about 19 asks while most first asks
     stay single. A unit is two rounds over the two halves of one split,
     so every unit does the same solve work whatever the seed.

   Units (warm blocks, cold passes with their daemon starts, mixed round
   pairs) run until [--seconds] of wall time have passed, at least four of
   them. The units of a run are alike by construction, while a shared
   machine loses CPU time to other guests in spells of seconds (the steal
   ticks of /proc/stat) that slow whole units. So each metric is taken
   over the run's quiet units together: latency percentiles over all their
   requests, qps and cpu_ms_per_req from their summed counts and times,
   rss_peak_mb as the median of their peaks. A unit is quiet when the
   machine's steal share over it is at most 2% or at most the run's median
   share: every unit of an undisturbed run, the quieter half of a disturbed
   one.

   setup_s is the median over the run's set-ups (warm: five full
   primings; mixed: the six half-primings), and on cold the median daemon
   start times the pass count of a run of nominal length (one pass per
   second of [--seconds]): the run's fresh-daemon starts summed, without
   letting one slow exec dominate; that median also takes four probe
   starts per pass, which answer nothing. *)

module Json = Wfc_obs.Json

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  wfc : string;
  catalogue : string;
  workdir : string;
  trace_out : string option;
}

(* The flags come from run.py, which has already checked them. *)
let parse argv =
  let rec pairs = function
    | k :: v :: rest -> (k, v) :: pairs rest
    | [] -> []
    | [ k ] -> failwith ("wfcbench: no value for " ^ k)
  in
  let flags = pairs (List.tl (Array.to_list argv)) in
  let get k =
    match List.assoc_opt k flags with Some v -> v | None -> failwith ("wfcbench: missing " ^ k)
  in
  {
    workload = get "--workload";
    seed = int_of_string (get "--seed");
    seconds = float_of_string (get "--seconds");
    trace = get "--trace" = "1";
    wfc = get "--wfc";
    catalogue = get "--catalogue";
    workdir = get "--workdir";
    trace_out = List.assoc_opt "--trace-out" flags;
  }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- daemons ---- *)

let wfc = ref ""

let spawned = ref 0

let fresh () =
  incr spawned;
  (Printf.sprintf "d%d.sock" !spawned, Printf.sprintf "store%d" !spawned)

let start ~socket ~store = Proc.start ~wfc:!wfc ~socket ~store ~log:"daemons.log"

let counters (d : Proc.t) =
  match Wfc_serve.Client.connect ~socket:d.socket with
  | Error e -> failwith e
  | Ok c -> (
    let r = Wfc_serve.Client.stats c in
    Wfc_serve.Client.close c;
    match r with
    | Ok (metrics, _) -> (
      match Json.member "counters" metrics with
      | Some (Json.Obj l) ->
        List.filter_map (function k, Json.Int v -> Some (k, v) | _ -> None) l
      | _ -> [])
    | Error e -> failwith e)

let count cs name = Option.value ~default:0 (List.assoc_opt name cs)

(* ---- measured units ---- *)

(* One measured unit: a warm block, a cold pass or a mixed round pair. *)
type unit_ = {
  results : Load.result list;
  elapsed : float;
  cpu_ms : float;  (** daemon utime + stime over the unit *)
  rss_mb : float;  (** daemon VmHWM at the unit's end *)
  deltas : (string * int) list;  (** daemon counter deltas *)
  hits : float list;  (** latencies of store answers (cold: of the read-back) *)
  steal : int * int;  (** the machine's (steal, total) CPU ticks over the unit *)
}

let items qs = Array.of_list (List.map (fun q -> { Load.q; pair = None }) qs)

let store_latencies rs =
  List.filter_map
    (fun (r : Load.result) -> if r.ok && r.source = "store" then Some r.latency else None)
    rs

let measure cat ?tracer ?rid0 (d : Proc.t) its =
  let s0, t0 = Proc.host_ticks () in
  let c0 = counters d in
  let cpu0 = Proc.cpu_ms d in
  let results, elapsed = Load.run ?tracer ?rid0 cat ~socket:d.socket its in
  let cpu1 = Proc.cpu_ms d in
  let rss_mb = Proc.rss_peak_mb d in
  let c1 = counters d in
  let s1, t1 = Proc.host_ticks () in
  {
    results;
    elapsed;
    cpu_ms = cpu1 -. cpu0;
    rss_mb;
    deltas = List.map (fun (k, v) -> (k, v - count c0 k)) c1;
    hits = store_latencies results;
    steal = (s1 - s0, t1 - t0);
  }

(* Runs [make_unit ~rid0] for each plan entry, numbering requests across
   units so trace ids stay unique. *)
let units plan make_unit =
  List.rev
    (List.fold_left
       (fun acc x ->
         let rid0 = List.fold_left (fun n u -> n + List.length u.results) 0 acc in
         make_unit ~rid0 x :: acc)
       [] plan)

(* Draws plan entries with [next] and runs [make_unit ~rid0] on each until
   [o.seconds] of wall time (a unit's own set-up included) have passed and
   at least [min_units] units have run. Returns the units and the plan, so
   a traced phase can replay the same entries. A slower program runs fewer
   units, not a longer run. *)
let min_units = 4

let until_deadline o next make_unit =
  let deadline = Unix.gettimeofday () +. o.seconds in
  let rec go acc plan rid0 =
    if Unix.gettimeofday () >= deadline && List.length acc >= min_units then
      (List.rev acc, List.rev plan)
    else
      let x = next () in
      let u = make_unit ~rid0 x in
      go (u :: acc) (x :: plan) (rid0 + List.length u.results)
  in
  go [] [] 0

type run = {
  plain : unit_ list;
  traced : (unit_ list * Load.tracer) option;
  setup_s : float;
  setup_n : int;
  checked : Load.result list;  (** set-up and read-back answers: checked, not measured *)
  order : int list;  (** distinct questions in first-ask order, for the replay *)
}

let setup_reps = 5

let warm_block = 400

(* cold's setup_s is the set-up time of a run of nominal length: one
   daemon start per [cold_pass_s] of [--seconds] *)
let cold_pass_s = 1.0

(* extra daemon starts per cold pass, timed and stopped at once, so that
   cold's setup_s rests on more than one start per pass *)
let cold_probe_starts = 4

let first_asks seq =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun q ->
      if Hashtbl.mem seen q then false
      else (
        Hashtbl.add seen q ();
        true))
    seq

(* The warm mix (see the header): each task instance an equal share, Zipf
   (s = 1) within it over its questions ranked simplest first. Returns the
   exact request counts of one block, by largest remainder. *)
let warm_counts (cat : Catalogue.t) =
  let instance (q : Catalogue.question) = (q.task, q.procs, q.param) in
  let rec index m = function [] -> max_int | x :: l -> if x = m then 0 else 1 + index m l in
  let simplicity (q : Catalogue.question) = (q.max_level, index q.model Catalogue.models) in
  let qs = List.mapi (fun i (q, _) -> (i, q)) (Array.to_list cat.questions) in
  let instances = List.sort_uniq compare (List.map (fun (_, q) -> instance q) qs) in
  let share = 1. /. float_of_int (List.length instances) in
  let exact = Array.make (List.length qs) 0. in
  List.iter
    (fun k ->
      let mine = List.filter (fun (_, q) -> instance q = k) qs in
      let ranked =
        List.sort (fun (_, a) (_, b) -> compare (simplicity a) (simplicity b)) mine
      in
      let h =
        List.fold_left (fun h r -> h +. (1. /. float_of_int r)) 0. (List.init (List.length ranked) succ)
      in
      List.iteri
        (fun r (i, _) ->
          exact.(i) <- float_of_int warm_block *. share /. (float_of_int (r + 1) *. h))
        ranked)
    instances;
  let counts = Array.map (fun x -> int_of_float (floor x)) exact in
  let short = warm_block - Array.fold_left ( + ) 0 counts in
  let by_remainder =
    List.stable_sort
      (fun a b -> compare (exact.(b) -. floor exact.(b)) (exact.(a) -. floor exact.(a)))
      (List.init (Array.length exact) Fun.id)
  in
  List.iteri (fun i q -> if i < short then counts.(q) <- counts.(q) + 1) by_remainder;
  counts

let print_warm_mix (cat : Catalogue.t) counts =
  let tasks =
    List.sort_uniq compare (Array.to_list (Array.map (fun (q, _) -> q.Catalogue.task) cat.questions))
  in
  let pct n = 100. *. float_of_int n /. float_of_int warm_block in
  let of_task t =
    let n = ref 0 in
    Array.iteri (fun i (q, _) -> if q.Catalogue.task = t then n := !n + counts.(i)) cat.questions;
    Printf.sprintf "%s %.1f%%" t (pct !n)
  in
  Printf.printf "warm mix per block of %d: %s; top question %.1f%%, bottom %.1f%%\n" warm_block
    (String.concat ", " (List.map of_task tasks))
    (pct (Array.fold_left max 0 counts))
    (pct (Array.fold_left min max_int counts))

let warm o cat rng =
  let n = Array.length cat.Catalogue.questions in
  let all = shuffle rng (List.init n Fun.id) in
  let counts = warm_counts cat in
  print_warm_mix cat counts;
  let block = List.concat (List.init n (fun q -> List.init counts.(q) (fun _ -> q))) in
  let checked = ref [] and setups = ref [] in
  let setup () =
    let t0 = Unix.gettimeofday () in
    let socket, store = fresh () in
    let dp = start ~socket ~store in
    checked := fst (Load.run cat ~socket (items all)) @ !checked;
    Proc.stop dp;
    let socket, _ = fresh () in
    let dm = start ~socket ~store in
    setups := (Unix.gettimeofday () -. t0) :: !setups;
    (dm, store)
  in
  for _ = 2 to setup_reps do
    let d, store = setup () in
    Proc.stop d;
    Proc.remove_tree store
  done;
  let dm, store = setup () in
  (* the traced phase replays the same blocks on a fresh daemon over the
     same store *)
  let plain, blocks =
    until_deadline o (fun () -> items (shuffle rng block)) (fun ~rid0 b -> measure cat ~rid0 dm b)
  in
  Proc.stop dm;
  let traced =
    if not o.trace then None
    else
      let socket, _ = fresh () in
      let d = start ~socket ~store in
      let tr = Load.tracer () in
      let us = units blocks (fun ~rid0 b -> measure cat ~tracer:tr ~rid0 d b) in
      Proc.stop d;
      Some (us, tr)
  in
  Proc.remove_tree store;
  {
    plain;
    traced;
    setup_s = Stats.median !setups;
    setup_n = List.length !setups;
    checked = !checked;
    order = all;
  }

let cold o cat rng =
  let n = Array.length cat.Catalogue.questions in
  let starts = ref [] and checked = ref [] in
  let probe () =
    let socket, store = fresh () in
    let d = start ~socket ~store in
    Proc.stop d;
    Proc.remove_tree store;
    starts := d.start_s :: !starts
  in
  let pass ?tracer ~rid0 order =
    if tracer = None then for _ = 1 to cold_probe_starts do probe () done;
    let socket, store = fresh () in
    let d = start ~socket ~store in
    let u = measure cat ?tracer ~rid0 d (items order) in
    let readback, _ = Load.run cat ~socket (items order) in
    Proc.stop d;
    Proc.remove_tree store;
    if tracer = None then starts := d.start_s :: !starts;
    checked := readback @ !checked;
    { u with hits = store_latencies readback }
  in
  let plain, orders =
    until_deadline o (fun () -> shuffle rng (List.init n Fun.id)) (fun ~rid0 order -> pass ~rid0 order)
  in
  let traced =
    if not o.trace then None
    else
      let tr = Load.tracer () in
      Some (units orders (fun ~rid0 order -> pass ~tracer:tr ~rid0 order), tr)
  in
  let nominal_passes = max 1 (int_of_float (ceil (o.seconds /. cold_pass_s))) in
  {
    plain;
    traced;
    setup_s = float_of_int nominal_passes *. Stats.median !starts;
    setup_n = List.length !starts;
    checked = !checked;
    order = first_asks (List.concat orders);
  }

(* A seeded split into primed and unprimed halves: the two levels of each
   (task, model) question go to different halves, so every task instance
   and model has the same share of hits and first asks whatever the seed
   (hit cost follows the task, solve cost the level). *)
let split (cat : Catalogue.t) rng =
  let groups = Hashtbl.create 128 in
  Array.iteri
    (fun i ((q : Catalogue.question), _) ->
      let key = (q.task, q.procs, q.param, q.model) in
      Hashtbl.replace groups key (i :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    cat.questions;
  let keys = List.sort compare (List.of_seq (Hashtbl.to_seq_keys groups)) in
  List.fold_left
    (fun (primed, unprimed) key ->
      match shuffle rng (List.sort compare (Hashtbl.find groups key)) with
      | a :: rest -> (a :: primed, rest @ unprimed)
      | [] -> (primed, unprimed))
    ([], []) keys

(* One measured unit of mixed: two rounds over complementary splits, so
   every question is primed in one round and a first ask in the other, and
   a unit's solve work is the same whatever the seed. *)
let merge a b =
  let keys = List.sort_uniq compare (List.map fst (a.deltas @ b.deltas)) in
  {
    results = a.results @ b.results;
    elapsed = a.elapsed +. b.elapsed;
    cpu_ms = a.cpu_ms +. b.cpu_ms;
    rss_mb = Float.max a.rss_mb b.rss_mb;
    deltas = List.map (fun k -> (k, count a.deltas k + count b.deltas k)) keys;
    hits = a.hits @ b.hits;
    steal = (fst a.steal + fst b.steal, snd a.steal + snd b.steal);
  }

(* Mixed primes [mixed_splits] seeded splits up front, both halves of each
   into a store of its own; every round then runs on a fresh copy of one
   half's store, so a round's wall time is nearly all measurement. *)
let mixed_splits = 3

let mixed o cat rng =
  let setups = ref [] and checked = ref [] in
  let prime qs =
    let t0 = Unix.gettimeofday () in
    let socket, store = fresh () in
    let dp = start ~socket ~store in
    checked := fst (Load.run cat ~socket (items (shuffle rng qs))) @ !checked;
    Proc.stop dp;
    let socket, _ = fresh () in
    let d = start ~socket ~store in
    setups := (Unix.gettimeofday () -. t0) :: !setups;
    Proc.stop d;
    store
  in
  let halves =
    Array.init mixed_splits (fun _ ->
        let primed, unprimed = split cat rng in
        ((prime primed, primed, unprimed), (prime unprimed, unprimed, primed)))
  in
  let round_plan (store, primed, unprimed) =
    let asks =
      List.concat (List.init 4 (fun _ -> List.map (fun q -> `One q) primed))
      @ List.mapi (fun i q -> if i mod 4 = 3 then `Both q else `One q) (shuffle rng unprimed)
    in
    let pair = ref 0 in
    let its =
      Array.of_list
        (List.concat_map
           (function
             | `One q -> [ { Load.q; pair = None } ]
             | `Both q ->
               incr pair;
               [ { Load.q; pair = Some !pair }; { Load.q; pair = Some !pair } ])
           (shuffle rng asks))
    in
    (store, its)
  in
  let next = ref 0 in
  let unit_plan () =
    let a, b = halves.(!next mod mixed_splits) in
    incr next;
    (round_plan a, round_plan b)
  in
  let round ?tracer ~rid0 (primed_store, its) =
    let socket, store = fresh () in
    Proc.copy_tree primed_store store;
    let d = start ~socket ~store in
    let u = measure cat ?tracer ~rid0 d its in
    Proc.stop d;
    Proc.remove_tree store;
    u
  in
  let pair ?tracer ~rid0 (a, b) =
    let ua = round ?tracer ~rid0 a in
    merge ua (round ?tracer ~rid0:(rid0 + List.length ua.results) b)
  in
  let plain, plan = until_deadline o unit_plan (fun ~rid0 p -> pair ~rid0 p) in
  let traced =
    if not o.trace then None
    else
      let tr = Load.tracer () in
      Some (units plan (fun ~rid0 p -> pair ~tracer:tr ~rid0 p), tr)
  in
  Array.iter
    (fun ((a, _, _), (b, _, _)) ->
      Proc.remove_tree a;
      Proc.remove_tree b)
    halves;
  let (_, primed0, _), _ = halves.(0) in
  let (_, its0), _ = List.hd plan in
  {
    plain;
    traced;
    setup_s = Stats.median !setups;
    setup_n = List.length !setups;
    checked = !checked;
    order = first_asks (primed0 @ List.map (fun (it : Load.item) -> it.q) (Array.to_list its0));
  }

(* ---- metrics ---- *)

let steal_share u =
  let s, t = u.steal in
  if t = 0 then 0. else float_of_int s /. float_of_int t

(* a failed request counts past any latency limit *)
let failed_latency_s = 1e6

let latencies rs =
  List.map (fun (r : Load.result) -> if r.ok then r.latency else failed_latency_s) rs

let completed rs = List.length (List.filter (fun (r : Load.result) -> r.ok) rs)

let qps u = float_of_int (completed u.results) /. u.elapsed

(* Steal share below which a unit counts as undisturbed. *)
let quiet_steal = 0.02

(* The units the hypervisor disturbed least: those whose steal share is at
   most [quiet_steal] or the run's median share, whichever is larger. *)
let quiet_limit us = Float.max quiet_steal (Stats.median (List.map steal_share us))

let quiet us =
  let limit = quiet_limit us in
  List.filter (fun u -> steal_share u <= limit) us

(* A run's figures are taken over its quiet units together. *)
let latency_ms p us =
  Stats.percentile p (latencies (List.concat_map (fun u -> u.results) (quiet us))) *. 1e3

let hit_latency_ms p us = Stats.percentile p (List.concat_map (fun u -> u.hits) (quiet us)) *. 1e3

let sum f us = List.fold_left (fun t u -> t +. f u) 0. (quiet us)

let requests u = float_of_int (List.length u.results)

let rate us = sum (fun u -> float_of_int (completed u.results)) us /. sum (fun u -> u.elapsed) us

let end_to_end (r : run) =
  let us = r.plain in
  [
    ("qps", rate us, "1/s");
    ("latency_p50_ms", latency_ms 50. us, "ms");
    ("latency_p90_ms", latency_ms 90. us, "ms");
    ("hit_latency_p90_ms", hit_latency_ms 90. us, "ms");
    ("setup_s", r.setup_s, "s");
    ("rss_peak_mb", Stats.median (List.map (fun u -> u.rss_mb) (quiet us)), "MiB");
    ("cpu_ms_per_req", sum (fun u -> u.cpu_ms) us /. sum requests us, "ms");
  ]

(* Per-layer figures of the traced phase (means per request) and of the
   replay. Self times add up to the client latency: a request span is
   client self + wire (encode, decode) + transport (connect, write and read
   minus the daemon's own total) + daemon self (total minus queue wait,
   solve and store) + those three stages. The stage metrics
   daemon.{queue_wait,solve,store}_ms are means over computed answers, and
   the replay's spans are leaves, so each is its own self time. *)
let per_layer (r : run) ~replay =
  let us, tr = Option.get r.traced in
  let results = List.concat_map (fun u -> u.results) us in
  let span_mean name =
    List.fold_left
      (fun t (s : Load.span) -> if s.name = name then t +. (s.t1 -. s.t0) else t)
      0. tr.Load.spans
    /. float_of_int (List.length results)
  in
  let all = List.filter_map (fun (x : Load.result) -> x.timing) results in
  let computed rs =
    List.filter_map
      (fun (x : Load.result) -> if x.source = "computed" then x.timing else None)
      rs
  in
  (* warm's measured phase computes nothing: take the stages of its set-up *)
  let solving = match computed results with [] -> computed r.checked | l -> l in
  let stage f l = Stats.mean (List.map f l) *. 1e3 in
  let total = stage (fun t -> t.Wfc_serve.Wire.total_s) all in
  let queue = stage (fun t -> t.Wfc_serve.Wire.queue_wait_s) all
  and solve = stage (fun t -> t.Wfc_serve.Wire.solve_s) all
  and store = stage (fun t -> t.Wfc_serve.Wire.store_s) all in
  let request = span_mean "request" in
  let connect = span_mean "client.connect" and encode = span_mean "wire.encode" in
  let write = span_mean "wire.write" and read = span_mean "wire.read" in
  let decode = span_mean "wire.decode" in
  let d = List.concat_map (fun u -> u.deltas) us in
  let sum name = List.fold_left (fun n (k, v) -> if k = name then n + v else n) 0 d in
  [
    ("client.connect_us", connect *. 1e6, "us");
    ("wire.request_encode_us", encode *. 1e6, "us");
    ("wire.response_decode_us", decode *. 1e6, "us");
    ( "wire.response_bytes",
      Stats.mean (List.map (fun (x : Load.result) -> float_of_int x.response_bytes) results),
      "bytes" );
    ("daemon.total_ms", total, "ms");
    ("daemon.queue_wait_ms", stage (fun t -> t.Wfc_serve.Wire.queue_wait_s) solving, "ms");
    ("daemon.solve_ms", stage (fun t -> t.Wfc_serve.Wire.solve_s) solving, "ms");
    ("daemon.store_ms", stage (fun t -> t.Wfc_serve.Wire.store_s) solving, "ms");
    ("transport_ms", (Stats.mean (List.map (fun (x : Load.result) -> x.latency) results) *. 1e3) -. total, "ms");
    ( "serve.hit_ratio",
      Stats.ratio (sum "serve.hits") (sum "serve.misses" + sum "serve.coalesced"),
      "ratio" );
    ("serve.coalesced", float_of_int (sum "serve.coalesced"), "count");
    ("serve.shed", float_of_int (sum "serve.shed"), "count");
    ("storage.cache_hit_ratio", Stats.ratio (sum "storage.cache.hit") (sum "storage.cache.miss"), "ratio");
  ]
  @ replay
  @ [
      ("self.client_us", (request -. connect -. encode -. write -. read -. decode) *. 1e6, "us");
      ("self.wire_us", (encode +. decode) *. 1e6, "us");
      ("self.transport_ms", ((connect +. write +. read) *. 1e3) -. total, "ms");
      ("self.daemon_ms", total -. queue -. solve -. store, "ms");
      ("trace.overhead_latency_p50_ms", latency_ms 50. us -. latency_ms 50. r.plain, "ms");
      ("trace.overhead_qps", rate r.plain -. rate us, "1/s");
    ]

(* ---- output ---- *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

let () =
  let o = parse Sys.argv in
  let cat = Catalogue.load o.catalogue in
  wfc := o.wfc;
  Sys.chdir o.workdir;
  let rng = Random.State.make [| o.seed |] in
  let r =
    match o.workload with
    | "warm" -> warm o cat rng
    | "cold" -> cold o cat rng
    | "mixed" -> mixed o cat rng
    | w -> failwith ("wfcbench: unknown workload " ^ w)
  in
  let results us = List.concat_map (fun u -> u.results) us in
  let plain = results r.plain in
  let traced = match r.traced with Some (us, _) -> results us | None -> [] in
  let everything = plain @ traced @ r.checked in
  let bad = List.filter (fun (x : Load.result) -> not x.ok) everything in
  let replay =
    match r.traced with
    | None -> None
    | Some _ ->
      let weights = Hashtbl.create 256 in
      List.iter
        (fun (x : Load.result) ->
          Hashtbl.replace weights x.r_q (1 + Option.value ~default:0 (Hashtbl.find_opt weights x.r_q)))
        plain;
      let tr = Load.tracer () in
      let rp =
        Replay.run tr cat ~store_dir:"replay-store" ~order:r.order
          ~weight:(fun q -> Option.value ~default:0 (Hashtbl.find_opt weights q))
      in
      Proc.remove_tree "replay-store";
      Some (rp, tr)
  in
  let mismatches = match replay with Some (rp, _) -> rp.Replay.mismatches | None -> 0 in
  (match (o.trace_out, r.traced, replay) with
  | Some path, Some (_, tr), Some (_, rtr) ->
    Wfc_obs.Report.write_file path
      (Json.Obj [ ("requests", Load.spans_json tr); ("replay", Load.spans_json rtr) ])
  | _ -> ());
  let metrics =
    match replay with
    | Some (rp, _) -> per_layer r ~replay:rp.Replay.metrics
    | None -> end_to_end r
  in
  let sources =
    List.map
      (fun s -> Printf.sprintf "%s %d" s (List.length (List.filter (fun (x : Load.result) -> x.source = s) plain)))
      [ "store"; "computed"; "coalesced" ]
  in
  Printf.printf "workload %s, seed %d, %.0f s; daemon: %s; %d clients, closed loop, one connection per request\n"
    o.workload o.seed o.seconds Proc.settings Load.clients;
  Printf.printf "machine: %s\n" (Json.to_line (Json.Obj (Wfc_obs.Report.machine_facts ())));
  Printf.printf
    "measured: %d requests in %d units, %.3f s (%s); each metric is taken over the %d quiet units (machine steal share at most %.3f)\n"
    (List.length plain) (List.length r.plain)
    (List.fold_left (fun t u -> t +. u.elapsed) 0. r.plain)
    (String.concat ", " sources)
    (List.length (quiet r.plain))
    (quiet_limit r.plain);
  Printf.printf "checked outside the measured units: %d set-up / read-back answers; setup_s over %d set-up(s)\n"
    (List.length r.checked) r.setup_n;
  Printf.printf "requests: %d attempted, %d succeeded, %d failed\n" (List.length everything)
    (List.length everything - List.length bad) (List.length bad);
  if o.trace then
    print_endline
      "not reported: Wfc_par (runs inline at 1 domain) and Wfc_model (not on the serving path)";
  List.iteri
    (fun i u ->
      Printf.printf "  unit %2d: %4d requests %7.3f s  qps %8.2f  p50 %7.3f ms  p90 %7.3f ms  hit p90 %7.3f ms  cpu %6.3f ms/req  steal %.3f\n" i
        (List.length u.results) u.elapsed (qps u)
        (Stats.percentile 50. (latencies u.results) *. 1e3)
        (Stats.percentile 90. (latencies u.results) *. 1e3)
        (Stats.percentile 90. u.hits *. 1e3)
        (u.cpu_ms /. float_of_int (List.length u.results))
        (steal_share u))
    r.plain;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.4f %s\n" name v unit) metrics;
  List.iter
    (fun (x : Load.result) ->
      Printf.printf "FAILED %s: %s\n"
        (Catalogue.name (fst cat.questions.(x.r_q)))
        (match x.source with
        | "store" | "computed" | "coalesced" -> "verdict bytes differ from golden (" ^ x.source ^ ")"
        | failure -> failure))
    (List.filteri (fun i _ -> i < 10) bad);
  if mismatches > 0 then Printf.printf "FAILED: %d inline replay verdicts differ from golden\n" mismatches;
  let unmeasured = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (name, _, _) -> Printf.printf "FAILED: %s was not measured\n" name) unmeasured;
  let correct = bad = [] && mismatches = 0 && unmeasured = [] in
  print_endline
    (result_line ~correct ~attempted:(List.length everything)
       ~failed:(List.length bad + mismatches) metrics);
  exit (if correct then 0 else 1)
