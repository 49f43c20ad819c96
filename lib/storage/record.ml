open Wfc_core

let schema_version = "wfc.store.v2"

type record = {
  digest : string;
  task : string;
  model : string;
  procs : int;
  max_level : int;
  budget : int;
  outcome : Solvability.outcome;
  created_at : float;
}

let make ~task ~spec ?(model = "wait-free") ~max_level ~budget outcome =
  {
    digest = Wfc_tasks.Task.digest task;
    task = spec;
    model;
    procs = task.Wfc_tasks.Task.procs;
    max_level;
    budget;
    outcome;
    created_at = Unix.gettimeofday ();
  }

(* [verdict_json] is the deterministic core — every byte a function of the
   question, never of the search that answered it. The cost tallies
   (nodes/backtracks/prunes) live in the record envelope with the timing
   fields: a search reducer changes how much work a verdict took, not what
   the verdict is, so cost is provenance — recorded, but outside the
   canonical object that solve/query/store hits must reproduce
   byte-for-byte. Key order is irrelevant — the canonical emitter
   sorts — but both views share one core builder so they can never
   disagree. *)
let json_fields r =
  let open Wfc_obs.Json in
  let o = r.outcome in
  [
    ("schema", String schema_version);
    ("digest", String r.digest);
    ("task", String r.task);
    ("model", String r.model);
    ("procs", Int r.procs);
    ("max_level", Int r.max_level);
    ("budget", Int r.budget);
    ("verdict", String o.Solvability.o_verdict);
    ("level", Int o.Solvability.o_level);
    ( "decide",
      Arr (List.map (fun (v, w) -> Arr [ Int v; Int w ]) o.Solvability.o_decide) );
  ]

let verdict_json r = Wfc_obs.Json.Obj (json_fields r)

let record_to_json r =
  let open Wfc_obs.Json in
  Obj
    (json_fields r
    @ [
        ("nodes", Int r.outcome.Solvability.o_nodes);
        ("backtracks", Int r.outcome.Solvability.o_backtracks);
        ("prunes", Int r.outcome.Solvability.o_prunes);
        ("elapsed", Float r.outcome.Solvability.o_elapsed);
        ("created_at", Float r.created_at);
      ])

let is_hex_digest s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let number_member key j =
  match Wfc_obs.Json.member key j with
  | Some (Wfc_obs.Json.Float f) -> Ok f
  | Some (Wfc_obs.Json.Int i) -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "missing or non-number %S" key)

let int_member key j =
  match Wfc_obs.Json.member key j with
  | Some (Wfc_obs.Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing or non-int %S" key)

let string_member key j =
  match Wfc_obs.Json.member key j with
  | Some (Wfc_obs.Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing or non-string %S" key)

let ( let* ) = Result.bind

(* Semantic checks past the JSON shape: a record that reaches the engine
   has a well-formed digest, a known verdict, and a decide table
   consistent with it. *)
let check_record r =
  let* () =
    if is_hex_digest r.digest then Ok () else Error "digest is not 32 hex chars"
  in
  let* () = if r.model = "" then Error "empty \"model\"" else Ok () in
  let* () =
    match r.outcome.Solvability.o_verdict with
    | "solvable" | "unsolvable" | "exhausted" -> Ok ()
    | v -> Error (Printf.sprintf "unknown verdict %S" v)
  in
  let o = r.outcome in
  if o.Solvability.o_verdict = "solvable" && o.Solvability.o_decide = [] then
    Error "solvable record with empty decide table"
  else if o.Solvability.o_verdict <> "solvable" && o.Solvability.o_decide <> [] then
    Error "non-solvable record with a decide table"
  else Ok ()

let record_of_json j =
  let* schema = string_member "schema" j in
  let* () =
    if schema = schema_version then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" schema schema_version)
  in
  let* digest = string_member "digest" j in
  let* task = string_member "task" j in
  let* model = string_member "model" j in
  let* procs = int_member "procs" j in
  let* max_level = int_member "max_level" j in
  let* budget = int_member "budget" j in
  let* verdict = string_member "verdict" j in
  let* level = int_member "level" j in
  let* nodes = int_member "nodes" j in
  let* backtracks = int_member "backtracks" j in
  let* prunes = int_member "prunes" j in
  let* elapsed = number_member "elapsed" j in
  let* created_at = number_member "created_at" j in
  let* decide =
    match Wfc_obs.Json.member "decide" j with
    | Some (Wfc_obs.Json.Arr l) ->
      let pair = function
        | Wfc_obs.Json.Arr [ Wfc_obs.Json.Int v; Wfc_obs.Json.Int w ] -> Ok (v, w)
        | _ -> Error "decide entries must be [vertex, output] int pairs"
      in
      List.fold_right
        (fun e acc ->
          let* acc = acc in
          let* p = pair e in
          Ok (p :: acc))
        l (Ok [])
    | _ -> Error "missing or non-array \"decide\""
  in
  let r =
    {
      digest;
      task;
      model;
      procs;
      max_level;
      budget;
      outcome =
        {
          Solvability.o_verdict = verdict;
          o_level = level;
          o_nodes = nodes;
          o_backtracks = backtracks;
          o_prunes = prunes;
          o_elapsed = elapsed;
          o_decide = decide;
        };
      created_at;
    }
  in
  let* () = check_record r in
  Ok r

let validate_json j = Result.map (fun (_ : record) -> ()) (record_of_json j)
