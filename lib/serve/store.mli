(** The names [perfbench/] calls, re-exported unchanged from
    {!Wfc_storage.Record} and {!Wfc_storage.Engine}. Nothing else in the
    repository uses this module: the daemon, wire, CLI, bench and tests
    call [Wfc_storage] directly. It is deleted with the next change under
    [perfbench/]. *)

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

val record :
  task:Wfc_tasks.Task.t ->
  spec:string ->
  ?model:string ->
  max_level:int ->
  budget:int ->
  Wfc_core.Solvability.outcome ->
  record
(** {!Wfc_storage.Record.make}. *)

val record_to_json : record -> Wfc_obs.Json.t
(** {!Wfc_storage.Record.record_to_json}. *)

val verdict_json : record -> Wfc_obs.Json.t
(** {!Wfc_storage.Record.verdict_json}. *)

type t = Wfc_storage.Engine.t

val open_store : ?cache_cap:int -> string -> t
(** {!Wfc_storage.Engine.open_store}. *)

val attach_skeletons : t -> unit
(** {!Wfc_storage.Engine.attach_skeletons}. *)

val find :
  t -> digest:string -> model:string -> max_level:int -> budget:int -> record option
(** {!Wfc_storage.Engine.find}. *)

val put : t -> record -> unit
(** {!Wfc_storage.Engine.put}. *)
