let schema_version = "wfc.obs.v1"

type scenario = {
  name : string;
  seconds : float;
  nodes : int option;
  verdict : string option;
  extra : (string * Json.t) list;
}

let scenario ?nodes ?verdict ?(extra = []) name seconds =
  { name; seconds; nodes; verdict; extra }

let scenario_json s =
  let fields = [ ("name", Json.String s.name); ("seconds", Json.Float s.seconds) ] in
  let fields =
    match s.nodes with None -> fields | Some n -> ("nodes", Json.Int n) :: fields
  in
  let fields =
    match s.verdict with None -> fields | Some v -> ("verdict", Json.String v) :: fields
  in
  Json.Obj (fields @ s.extra)

let to_json ?machine ?snapshot scenarios =
  let base =
    [
      ("schema", Json.String schema_version);
      ("scenarios", Json.Arr (List.map scenario_json scenarios));
    ]
  in
  let base =
    match machine with None -> base | Some m -> base @ [ ("machine", Json.Obj m) ]
  in
  let metrics =
    match snapshot with
    | None -> []
    | Some snap -> (
      match Snapshot.to_json snap with
      | Json.Obj fields -> fields
      | _ -> assert false)
  in
  Json.Obj (base @ metrics)

(* Machine provenance for committed timing artifacts: a wall-clock
   number is meaningless without knowing how many cores backed the run
   and which commit produced it. *)
let machine_facts () =
  let recommended = Domain.recommended_domain_count () in
  let git_sha =
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  [
    ("recommended_domain_count", Json.Int recommended);
    ("git_sha", Json.String git_sha);
    ("single_core_container", Json.Bool (recommended = 1));
  ]

let write_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string j))

(* ------------------------------------------------------------------ *)
(* validation                                                           *)
(* ------------------------------------------------------------------ *)

let validate ?expect_verdict ?min_nodes ?scenario_name j =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* () =
    match Json.member "schema" j with
    | Some (Json.String v) when v = schema_version -> Ok ()
    | Some (Json.String v) -> err "schema is %S, expected %S" v schema_version
    | _ -> err "missing \"schema\" tag"
  in
  let* scenarios =
    match Json.member "scenarios" j with
    | Some (Json.Arr items) -> Ok items
    | _ -> err "missing \"scenarios\" array"
  in
  let check_shape i s =
    let* () =
      match Json.member "name" s with
      | Some (Json.String _) -> Ok ()
      | _ -> err "scenario %d: missing string \"name\"" i
    in
    let* () =
      match Json.member "seconds" s with
      | Some (Json.Float _ | Json.Int _) -> Ok ()
      | _ -> err "scenario %d: missing numeric \"seconds\"" i
    in
    let* () =
      match Json.member "nodes" s with
      | None | Some (Json.Int _) -> Ok ()
      | _ -> err "scenario %d: \"nodes\" is not an int" i
    in
    match Json.member "verdict" s with
    | None | Some (Json.String _) -> Ok ()
    | _ -> err "scenario %d: \"verdict\" is not a string" i
  in
  let rec shapes i = function
    | [] -> Ok ()
    | s :: rest ->
      let* () = check_shape i s in
      shapes (i + 1) rest
  in
  let* () = shapes 0 scenarios in
  let name_of s =
    match Json.member "name" s with Some (Json.String n) -> n | _ -> ""
  in
  let satisfies s =
    let verdict_ok =
      match expect_verdict with
      | None -> true
      | Some want -> (
        match Json.member "verdict" s with
        | Some (Json.String v) -> v = want
        | _ -> false)
    in
    let nodes_ok =
      match min_nodes with
      | None -> true
      | Some lo -> (
        match Json.member "nodes" s with Some (Json.Int n) -> n >= lo | _ -> false)
    in
    verdict_ok && nodes_ok
  in
  match scenario_name with
  | Some want -> (
    match List.find_opt (fun s -> name_of s = want) scenarios with
    | None -> err "no scenario named %S" want
    | Some s ->
      if satisfies s then Ok ()
      else
        err "scenario %S fails constraints (verdict=%s, min-nodes=%s)" want
          (Option.value ~default:"-" expect_verdict)
          (match min_nodes with None -> "-" | Some n -> string_of_int n))
  | None ->
    if expect_verdict = None && min_nodes = None then Ok ()
    else if List.exists satisfies scenarios then Ok ()
    else
      err "no scenario satisfies constraints (verdict=%s, min-nodes=%s)"
        (Option.value ~default:"-" expect_verdict)
        (match min_nodes with None -> "-" | Some n -> string_of_int n)
