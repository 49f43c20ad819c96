(* The storage engine: sharded layout + decoded-record LRU, behind the
   question-keyed find/put the serving layer answers from.

   One record format (canonical JSON) under one layout (the sharded path)
   is all the serving path knows. Read path: LRU (no syscalls) → one open
   of the question's sharded path; a file that is not there is a miss, so
   a second process writing to the same store (inline [wfc query --store]
   beside a daemon) is visible immediately. Nothing reads any other layout
   or schema: a flat pre-sharding or [wfc.store.v1] file is never served.

   Write path: encode → atomic publish (unique .wtmp + fsync + rename) →
   cache fill. The directory tree is the only index: ls/verify/gc walk it.
   A crash at any instant leaves a store verify can explain: at worst a
   stray temp, which gc reaps. *)

let c_reads = Wfc_obs.Metrics.counter "serve.store.reads"

let c_puts = Wfc_obs.Metrics.counter "serve.store.puts"

let c_quarantined = Wfc_obs.Metrics.counter "serve.store.quarantined"

let c_hit = Wfc_obs.Metrics.counter "storage.cache.hit"

let c_miss = Wfc_obs.Metrics.counter "storage.cache.miss"

let c_evict = Wfc_obs.Metrics.counter "storage.cache.evict"

let default_cache_cap = 4096

type t = {
  root : string;
  cache : Record.record Lru.t;
  cache_mu : Mutex.t;
}

let open_store ?(cache_cap = default_cache_cap) root =
  Layout.mkdir_p root;
  Layout.mkdir_p (Filename.concat root Layout.quarantine_root);
  {
    root;
    cache =
      Lru.create cache_cap ~on_evict:(fun _ _ -> Wfc_obs.Metrics.incr c_evict);
    cache_mu = Mutex.create ();
  }

let dir t = t.root

let with_cache t f =
  Mutex.lock t.cache_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cache_mu) (fun () -> f t.cache)

let cache_clear t = with_cache t Lru.clear

let close = cache_clear

let cache_keys t = with_cache t Lru.keys_mru_first

let cache_key ~digest ~model ~max_level =
  Printf.sprintf "%s.%s.L%d" digest (Wfc_tasks.Model.slug_of_name model) max_level

let abs t rel = Filename.concat t.root rel

let path_of t ~digest ~model ~max_level =
  abs t (Layout.verdict_rel ~digest ~model ~max_level)

(* ---- quarantine ---- *)

let quarantine t rel =
  Wfc_obs.Metrics.incr c_quarantined;
  let path = abs t rel in
  let dst =
    Filename.concat (abs t Layout.quarantine_root) (Filename.basename path)
  in
  try Unix.rename path dst
  with Unix.Unix_error _ -> ( try Sys.remove path with Sys_error _ -> ())

(* ---- read path ---- *)

let read_record path =
  match Layout.read_file path with
  | exception Sys_error e -> Error (`Unreadable e)
  | contents -> (
    match Wfc_obs.Json.parse contents with
    | Error e -> Error (`Corrupt (Printf.sprintf "invalid JSON (%s)" e))
    | Ok j -> Result.map_error (fun e -> `Corrupt e) (Record.record_of_json j))

let find t ~digest ~model ~max_level ~budget =
  let key = cache_key ~digest ~model ~max_level in
  match with_cache t (fun c -> Lru.find c key) with
  | Some r ->
    Wfc_obs.Metrics.incr c_hit;
    (* same budget discipline as disk: a different budget is a miss, and
       the record stays *)
    if r.Record.budget = budget then Some r else None
  | None -> (
    Wfc_obs.Metrics.incr c_miss;
    let rel = Layout.verdict_rel ~digest ~model ~max_level in
    match read_record (abs t rel) with
    | Error (`Unreadable _) -> None (* absent (the common miss) or unreadable *)
    | read -> (
      Wfc_obs.Metrics.incr c_reads;
      match read with
      | Ok r
        when r.Record.digest = digest && r.Record.model = model
             && r.Record.budget = budget ->
        with_cache t (fun c -> Lru.put c key r);
        Some r
      | Ok r when r.Record.digest <> digest || r.Record.model <> model ->
        (* filed under the wrong name: never serve it *)
        quarantine t rel;
        None
      | Ok _ -> None (* different budget: a miss, and the record stays *)
      | Error _ ->
        quarantine t rel;
        None))

(* ---- write path ---- *)

let put t (r : Record.record) =
  let digest = r.Record.digest
  and model = r.Record.model
  and max_level = r.Record.max_level in
  let rel = Layout.verdict_rel ~digest ~model ~max_level in
  Layout.atomic_write (abs t rel) (Wfc_obs.Json.to_string (Record.record_to_json r));
  Wfc_obs.Metrics.incr c_puts;
  with_cache t (fun c -> Lru.put c (cache_key ~digest ~model ~max_level) r)

(* ---- answering a question ---- *)

let c_store_hits = Wfc_obs.Metrics.counter "solvability.store.hits"

let c_store_misses = Wfc_obs.Metrics.counter "solvability.store.misses"

type answer =
  | Stored of Record.record
  | Computed of {
      record : Record.record;
      verdict : Wfc_core.Solvability.verdict;
      solve_s : float;
      put_s : float;
    }

type error = Unverified of string

let error_to_string (Unverified reason) = "unverified decision map: " ^ reason

(* A Solvable map is checked before it becomes a record: a filed Solvable
   is a certificate, and [Solvability.verify] is the independent check
   (cheap next to the solve: the admitted facet set comes from the
   solver's level memo). A map that fails is an error, never a record. A
   budget overrun is a fact about the budget, not the task, so an
   [Exhausted] verdict gets its record but is never filed. *)
let file store ~opts ~spec ~max_level task verdict =
  let module S = Wfc_core.Solvability in
  let checked =
    match verdict with
    | S.Solvable { map; _ } -> Wfc_obs.Metrics.with_span "solvability.verify" (fun () -> S.verify map)
    | S.Unsolvable_at _ | S.Exhausted _ -> Ok ()
  in
  match checked with
  | Error reason -> Error (Unverified reason)
  | Ok () ->
    let model = Wfc_tasks.Model.to_string opts.S.model and budget = opts.S.budget in
    let record =
      Record.make ~task ~spec ~model ~max_level ~budget (S.outcome_of_verdict verdict)
    in
    let put_s =
      match (store, verdict) with
      | Some t, (S.Solvable _ | S.Unsolvable_at _) ->
        let t0 = Wfc_obs.Metrics.now_s () in
        put t record;
        Wfc_obs.Metrics.now_s () -. t0
      | _, S.Exhausted _ | None, _ -> 0.
    in
    Ok (record, put_s)

(* The one owner of "find; else solve, then file". The find runs even
   when the caller already missed (the daemon, at admission): another
   process sharing the directory may have filed the verdict since. *)
let answer store ~opts ~spec ~max_level task =
  let module S = Wfc_core.Solvability in
  let model = Wfc_tasks.Model.to_string opts.S.model and budget = opts.S.budget in
  let digest = Wfc_tasks.Task.digest task in
  match Option.bind store (fun t -> find t ~digest ~model ~max_level ~budget) with
  | Some r ->
    Wfc_obs.Metrics.incr c_store_hits;
    Ok (Stored r)
  | None ->
    if Option.is_some store then Wfc_obs.Metrics.incr c_store_misses;
    let t0 = Wfc_obs.Metrics.now_s () in
    let verdict = S.solve ~opts ~max_level task in
    let solve_s = Wfc_obs.Metrics.now_s () -. t0 in
    Result.map
      (fun (record, put_s) -> Computed { record; verdict; solve_s; put_s })
      (file store ~opts ~spec ~max_level task verdict)

(* ---- skeleton keyspace ---- *)

let find_skeleton t ~digest ~level =
  let rel = Layout.skeleton_rel ~digest ~level in
  match Layout.read_file (abs t rel) with
  | exception Sys_error _ -> None
  | contents -> Some contents

let put_skeleton t ~digest ~level data =
  Layout.atomic_write (abs t (Layout.skeleton_rel ~digest ~level)) data

(* Point [Sds.iterate] at this store's skeleton keyspace: subdivision steps
   of already-seen complexes replay from one artifact instead of re-running
   the ordered-partition enumeration. Process-wide (the subdivision memo
   is too); integrity checking lives in [Sds]. *)
let attach_skeletons t =
  Wfc_topology.Sds.set_skeleton_store
    (Some
       {
         Wfc_topology.Sds.load = find_skeleton t;
         save = put_skeleton t;
       })

(* ---- scans: ls / verify / gc ----

   The tree is the store's only index: each scan below is one walk of the
   root. The serving path above never walks. *)

type file_class = Quarantined | Tmp | Skeleton_file | Record_file | Other

(* Anything not ending in [.json] (the index file an older build kept at
   the root, say) is [Other], which every scan ignores. *)
let classify rel =
  if String.starts_with ~prefix:(Layout.quarantine_root ^ "/") rel then Quarantined
  else if Layout.is_tmp rel then Tmp
  else if String.starts_with ~prefix:(Layout.skeleton_root ^ "/") rel then Skeleton_file
  else if Filename.check_suffix rel ".json" then Record_file
  else Other

type listing = { records : (string * Record.record) list; skeletons : int }

let ls t =
  let records = ref [] and skeletons = ref 0 in
  Layout.walk t.root ~f:(fun rel ->
      match classify rel with
      | Skeleton_file -> incr skeletons
      | Record_file -> (
        match read_record (abs t rel) with
        | Ok r -> records := (rel, r) :: !records
        | Error _ -> ())
      | Quarantined | Tmp | Other -> ());
  {
    records = List.sort (fun (a, _) (b, _) -> String.compare a b) !records;
    skeletons = !skeletons;
  }

(* A record file is well-named when it sits at the one path [find] reads
   for its own body's question. *)
let well_named rel (r : Record.record) =
  rel
  = Layout.verdict_rel ~digest:r.Record.digest ~model:r.Record.model
      ~max_level:r.Record.max_level

type verify_report = {
  valid : int;
  corrupt : (string * string) list;
  mismatched : string list;
  quarantined : int;
  stray_tmp : int;
}

let verify t =
  let valid = ref 0
  and corrupt = ref []
  and mismatched = ref []
  and quarantined = ref 0
  and stray_tmp = ref 0 in
  Layout.walk t.root ~f:(fun rel ->
      match classify rel with
      | Skeleton_file | Other -> ()
      | Quarantined -> incr quarantined
      | Tmp -> incr stray_tmp
      | Record_file -> (
        match read_record (abs t rel) with
        | Error (`Unreadable e | `Corrupt e) -> corrupt := (rel, e) :: !corrupt
        | Ok r ->
          if well_named rel r then incr valid else mismatched := rel :: !mismatched));
  {
    valid = !valid;
    corrupt = List.rev !corrupt;
    mismatched = List.rev !mismatched;
    quarantined = !quarantined;
    stray_tmp = !stray_tmp;
  }

let gc t ~removed =
  Layout.walk t.root ~f:(fun rel ->
      match classify rel with
      | Tmp | Quarantined -> (
        try
          Sys.remove (abs t rel);
          incr removed
        with Sys_error _ -> ())
      | Skeleton_file | Record_file | Other -> ())

(* ---- synthetic population (bench / CI) ---- *)

let seed t ~count =
  for i = 0 to count - 1 do
    let digest = Digest.to_hex (Digest.string (Printf.sprintf "wfc-seed-%d" i)) in
    let solvable = i mod 2 = 0 in
    let decide =
      if solvable then List.init (3 + (i mod 5)) (fun v -> (v, v mod 2)) else []
    in
    let r =
      {
        Record.digest;
        task = Printf.sprintf "seed(procs=2,param=%d)" i;
        model = "wait-free";
        procs = 2;
        max_level = i mod 3;
        budget = 5_000_000;
        outcome =
          {
            Wfc_core.Solvability.o_verdict = (if solvable then "solvable" else "unsolvable");
            o_level = i mod 3;
            o_nodes = 100 + i;
            o_backtracks = i mod 7;
            o_prunes = i mod 11;
            o_elapsed = 0.001;
            o_decide = decide;
          };
        created_at = float_of_int i;
      }
    in
    put t r
  done
