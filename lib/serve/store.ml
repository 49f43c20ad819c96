(* The names [perfbench/] calls, re-exported from [Wfc_storage]. Everything
   else calls [Wfc_storage] directly; this module is deleted with the next
   change under [perfbench/]. *)

type record = Wfc_storage.Record.record = {
  digest : string;
  task : string;
  model : string;
  procs : int;
  max_level : int;
  budget : int;
  outcome : Wfc_core.Solvability.outcome;
  created_at : float;
}

let record = Wfc_storage.Record.make

let record_to_json = Wfc_storage.Record.record_to_json

let verdict_json = Wfc_storage.Record.verdict_json

type t = Wfc_storage.Engine.t

let open_store = Wfc_storage.Engine.open_store

let attach_skeletons = Wfc_storage.Engine.attach_skeletons

let find = Wfc_storage.Engine.find

let put = Wfc_storage.Engine.put
