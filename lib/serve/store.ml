(* The serving layer's store, now a thin veneer over {!Wfc_storage.Engine}
   — the sharded, manifest-indexed, cache-tiered engine. This module keeps
   the (digest, model, level, budget)-keyed API and record type the rest of
   the serving layer was written against; everything behind it (layout,
   manifest, LRU) lives in [lib/storage]. *)

module Record = Wfc_storage.Record
module Engine = Wfc_storage.Engine

let schema_version = Record.schema_version

type record = Record.record = {
  digest : string;
  task : string;
  model : string;
  procs : int;
  max_level : int;
  budget : int;
  outcome : Wfc_core.Solvability.outcome;
  created_at : float;
}

let record = Record.make

let record_to_json = Record.record_to_json

let verdict_json = Record.verdict_json

let record_of_json = Record.record_of_json

let validate_json = Record.validate_json

type t = Engine.t

let open_store = Engine.open_store

(* Point [Sds.iterate] at this store's skeleton keyspace: subdivision steps
   of already-seen complexes replay from one artifact instead of re-running
   the ordered-partition enumeration. Process-wide (the subdivision memo
   is too); integrity checking lives in [Sds]. *)
let attach_skeletons t =
  Wfc_topology.Sds.set_skeleton_store
    (Some
       {
         Wfc_topology.Sds.load =
           (fun ~digest ~level -> Engine.find_skeleton t ~digest ~level);
         save =
           (fun ~digest ~level data ->
             Engine.put_skeleton t ~digest ~level
               ~created_at:(Unix.gettimeofday ()) data);
       })

let dir = Engine.dir

let path_of = Engine.path_of

let find = Engine.find

let put = Engine.put

let entries = Engine.entries

type verify_report = Engine.verify_report = {
  valid : int;
  corrupt : (string * string) list;
  mismatched : string list;
  quarantined : int;
  stray_tmp : int;
  unindexed : int;
  missing : int;
  bad_manifest_lines : int;
}

let verify = Engine.verify

let gc = Engine.gc
