(* The storage engine: sharded layout + manifest index + decoded-record
   LRU, behind the question-keyed find/put the serving layer answers from.

   One record format (canonical JSON) under one layout (the sharded path)
   is all the serving path knows. Read path: LRU (no syscalls) → one open
   of the question's sharded path; a file that is not there is a miss. The
   manifest is never consulted, so a second process appending to the same
   store (inline [wfc query --store] beside a daemon) is visible
   immediately; the manifest only feeds ls/verify/gc, where staleness costs
   a report line, not a wrong answer. Nothing reads any other layout or
   schema: a flat pre-sharding or [wfc.store.v1] file is never served.

   Write path: encode → atomic publish (unique .wtmp + fsync + rename) →
   fsync'd manifest append → cache fill. A crash at any instant leaves a
   store verify can explain: at worst a stray temp (reaped by gc) or a
   durable record whose manifest line is missing (reported as unindexed,
   re-indexed by rebuild). *)

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
  manifest : Manifest.t;
}

let manifest_path root = Filename.concat root Layout.manifest_basename

let open_store ?(cache_cap = default_cache_cap) root =
  Layout.mkdir_p root;
  Layout.mkdir_p (Filename.concat root Layout.quarantine_root);
  {
    root;
    cache =
      Lru.create cache_cap ~on_evict:(fun _ _ -> Wfc_obs.Metrics.incr c_evict);
    cache_mu = Mutex.create ();
    manifest = Manifest.create (manifest_path root);
  }

let dir t = t.root

let close t = Manifest.close t.manifest

let with_cache t f =
  Mutex.lock t.cache_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cache_mu) (fun () -> f t.cache)

let cache_clear t = with_cache t Lru.clear

let cache_keys t = with_cache t Lru.keys_mru_first

let cache_key ~digest ~model ~max_level =
  Printf.sprintf "%s.%s.L%d" digest (Wfc_tasks.Model.slug_of_name model) max_level

let abs t rel = Filename.concat t.root rel

let path_of t ~digest ~model ~max_level =
  abs t (Layout.verdict_rel ~digest ~model ~max_level)

(* ---- manifest entries ---- *)

let del_entry rel =
  {
    Manifest.op = Del;
    kind = Verdict;
    rel;
    digest = "";
    model = "";
    max_level = 0;
    budget = 0;
    verdict = "";
    level = 0;
    codec = "";
    created_at = 0.;
  }

let manifest_put_entry ~rel (r : Record.record) =
  {
    Manifest.op = Put;
    kind = Verdict;
    rel;
    digest = r.Record.digest;
    model = r.Record.model;
    max_level = r.Record.max_level;
    budget = r.Record.budget;
    verdict = r.Record.outcome.Wfc_core.Solvability.o_verdict;
    level = r.Record.outcome.Wfc_core.Solvability.o_level;
    codec = "json";
    created_at = r.Record.created_at;
  }

let skeleton_entry ~rel ~digest ~level ~created_at =
  {
    Manifest.op = Put;
    kind = Skeleton;
    rel;
    digest;
    model = "";
    max_level = level;
    budget = 0;
    verdict = "";
    level;
    codec = "json";
    created_at;
  }

(* ---- quarantine ---- *)

let quarantine t rel =
  Wfc_obs.Metrics.incr c_quarantined;
  let path = abs t rel in
  let dst =
    Filename.concat (abs t Layout.quarantine_root) (Filename.basename path)
  in
  (try Unix.rename path dst
   with Unix.Unix_error _ -> (
     try Sys.remove path with Sys_error _ -> ()));
  (* keep the index honest: the artifact is gone from its filed path *)
  Manifest.append t.manifest (del_entry rel)

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
  Manifest.append t.manifest (manifest_put_entry ~rel r);
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

(* The one owner of "find; else solve, then file unless Exhausted". The
   find runs even when the caller already missed (the daemon, at
   admission): another process sharing the directory may have filed the
   verdict since. A budget overrun is a fact about the budget, not the
   task, so an [Exhausted] verdict is answered but never filed. *)
let answer store ~opts ~spec ~max_level task =
  let module S = Wfc_core.Solvability in
  let model = Wfc_tasks.Model.to_string opts.S.model and budget = opts.S.budget in
  let digest = Wfc_tasks.Task.digest task in
  match Option.bind store (fun t -> find t ~digest ~model ~max_level ~budget) with
  | Some r ->
    Wfc_obs.Metrics.incr c_store_hits;
    Stored r
  | None ->
    if Option.is_some store then Wfc_obs.Metrics.incr c_store_misses;
    let t0 = Wfc_obs.Metrics.now_s () in
    let verdict = S.solve ~opts ~max_level task in
    let solve_s = Wfc_obs.Metrics.now_s () -. t0 in
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
    Computed { record; verdict; solve_s; put_s }

(* ---- skeleton keyspace ---- *)

let find_skeleton t ~digest ~level =
  let rel = Layout.skeleton_rel ~digest ~level in
  match Layout.read_file (abs t rel) with
  | exception Sys_error _ -> None
  | contents -> Some contents

let put_skeleton t ~digest ~level ~created_at data =
  let rel = Layout.skeleton_rel ~digest ~level in
  Layout.atomic_write (abs t rel) data;
  Manifest.append t.manifest (skeleton_entry ~rel ~digest ~level ~created_at)

(* Point [Sds.iterate] at this store's skeleton keyspace: subdivision steps
   of already-seen complexes replay from one artifact instead of re-running
   the ordered-partition enumeration. Process-wide (the subdivision memo
   is too); integrity checking lives in [Sds]. *)
let attach_skeletons t =
  Wfc_topology.Sds.set_skeleton_store
    (Some
       {
         Wfc_topology.Sds.load = (fun ~digest ~level -> find_skeleton t ~digest ~level);
         save =
           (fun ~digest ~level data ->
             put_skeleton t ~digest ~level ~created_at:(Unix.gettimeofday ()) data);
       })

(* ---- scans: ls / verify / rebuild / gc ----

   Everything below reads the manifest (one sequential file) or, for the
   reconciling scans (verify / rebuild / gc), walks the tree once.
   The serving path above never does either. *)

let ls t =
  let { Manifest.entries; _ } = Manifest.load (manifest_path t.root) in
  Manifest.live entries

(* A record file is well-named when it sits at the one path [find] reads
   for its own body's question. *)
let well_named rel (r : Record.record) =
  rel
  = Layout.verdict_rel ~digest:r.Record.digest ~model:r.Record.model
      ~max_level:r.Record.max_level

type file_class = Manifest_file | Quarantined | Tmp | Skeleton_file | Record_file | Other

let classify rel =
  if rel = Layout.manifest_basename then Manifest_file
  else if String.length rel > 11 && String.sub rel 0 11 = "quarantine/" then
    Quarantined
  else if Layout.is_tmp rel then Tmp
  else if String.length rel > 10 && String.sub rel 0 10 = "skeletons/" then
    Skeleton_file
  else if Filename.check_suffix rel ".json" then Record_file
  else Other

(* The manifest entry of a skeleton file, recovered from its name alone
   ([<digest>.L<level>.json]) for the scans that index what they find. *)
let skeleton_entry_of_rel rel =
  let b = Filename.basename rel in
  let digest = try String.sub b 0 32 with Invalid_argument _ -> "" in
  let level =
    try Scanf.sscanf (Filename.remove_extension b) "%_s@.L%d" (fun l -> l)
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> 0
  in
  skeleton_entry ~rel ~digest ~level ~created_at:0.

type verify_report = {
  valid : int;
  corrupt : (string * string) list;
  mismatched : string list;
  quarantined : int;
  stray_tmp : int;
  unindexed : int;
  missing : int;
  bad_manifest_lines : int;
}

let verify t =
  let { Manifest.entries = log; bad_lines } = Manifest.load (manifest_path t.root) in
  let live = Manifest.live log in
  let live_tbl = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace live_tbl e.Manifest.rel false) live;
  let valid = ref 0
  and corrupt = ref []
  and mismatched = ref []
  and quarantined = ref 0
  and stray_tmp = ref 0
  and unindexed = ref 0 in
  let seen rel =
    match Hashtbl.find_opt live_tbl rel with
    | Some _ -> Hashtbl.replace live_tbl rel true
    | None -> incr unindexed
  in
  Layout.walk t.root ~f:(fun rel ->
      match classify rel with
      | Manifest_file | Other -> ()
      | Quarantined -> incr quarantined
      | Tmp -> incr stray_tmp
      | Skeleton_file -> seen rel
      | Record_file -> (
        seen rel;
        match read_record (abs t rel) with
        | Error (`Unreadable e) | Error (`Corrupt e) ->
          corrupt := (rel, e) :: !corrupt
        | Ok r ->
          if well_named rel r then incr valid else mismatched := rel :: !mismatched));
  let missing = Hashtbl.fold (fun _ seen n -> if seen then n else n + 1) live_tbl 0 in
  {
    valid = !valid;
    corrupt = List.rev !corrupt;
    mismatched = List.rev !mismatched;
    quarantined = !quarantined;
    stray_tmp = !stray_tmp;
    unindexed = !unindexed;
    missing;
    bad_manifest_lines = bad_lines;
  }

(* Rebuild the manifest from nothing but the tree — the recovery path that
   makes the manifest derived state. Returns the number of live entries
   written. *)
let rebuild_manifest t =
  let entries = ref [] in
  Layout.walk t.root ~f:(fun rel ->
      match classify rel with
      | Record_file -> (
        match read_record (abs t rel) with
        | Error _ -> ()
        | Ok r -> entries := manifest_put_entry ~rel r :: !entries)
      | Skeleton_file -> entries := skeleton_entry_of_rel rel :: !entries
      | _ -> ());
  let entries = List.sort (fun a b -> compare a.Manifest.rel b.Manifest.rel) !entries in
  Manifest.close t.manifest;
  Manifest.write_full (manifest_path t.root) entries;
  List.length entries

let gc t ~removed =
  let rm path = try Sys.remove path; incr removed with Sys_error _ -> () in
  let tmps = ref [] and quarantined = ref [] in
  Layout.walk t.root ~f:(fun rel ->
      match classify rel with
      | Tmp -> tmps := rel :: !tmps
      | Quarantined -> quarantined := rel :: !quarantined
      | _ -> ());
  List.iter (fun rel -> rm (abs t rel)) !tmps;
  List.iter (fun rel -> rm (abs t rel)) !quarantined;
  (* compact: rewrite the log as exactly the live, still-on-disk set *)
  let { Manifest.entries = log; _ } = Manifest.load (manifest_path t.root) in
  let live =
    List.filter (fun e -> Sys.file_exists (abs t e.Manifest.rel)) (Manifest.live log)
  in
  Manifest.close t.manifest;
  Manifest.write_full (manifest_path t.root) live

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
