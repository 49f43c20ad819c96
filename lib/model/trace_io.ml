module Json = Wfc_obs.Json

let schema_version = "wfc.trace.v1"

type meta = {
  protocol : string;
  procs : int;
  rounds : int;
  seed : int option;
  crash : int list;
}

let meta ?seed ?(crash = []) ~protocol ~procs ~rounds () =
  { protocol; procs; rounds; seed; crash = List.sort_uniq Stdlib.compare crash }

(* ------------------------------------------------------------------ *)
(* serialization                                                        *)
(* ------------------------------------------------------------------ *)

let meta_to_json m =
  Json.Obj
    [
      ("protocol", Json.String m.protocol);
      ("procs", Json.Int m.procs);
      ("rounds", Json.Int m.rounds);
      ("seed", match m.seed with None -> Json.Null | Some s -> Json.Int s);
      ("crash", Json.Arr (List.map (fun p -> Json.Int p) m.crash));
    ]

let opt_value value_to_json = function
  | None -> Json.Null
  | Some v -> value_to_json v

let event_to_json value_to_json e =
  let obj ev time fields = Json.Obj (("ev", Json.String ev) :: ("t", Json.Int time) :: fields) in
  match e with
  | Trace.E_write { time; proc; value } ->
    obj "write" time [ ("proc", Json.Int proc); ("value", value_to_json value) ]
  | Trace.E_read { time; proc; cell; value } ->
    obj "read" time
      [ ("proc", Json.Int proc); ("cell", Json.Int cell); ("value", opt_value value_to_json value) ]
  | Trace.E_snapshot { time; proc; view } ->
    obj "snapshot" time
      [
        ("proc", Json.Int proc);
        ("view", Json.Arr (Array.to_list (Array.map (opt_value value_to_json) view)));
      ]
  | Trace.E_arrive { time; proc; level; value } ->
    obj "arrive" time
      [ ("proc", Json.Int proc); ("level", Json.Int level); ("value", value_to_json value) ]
  | Trace.E_fire { time; level; block } ->
    obj "fire" time
      [ ("level", Json.Int level); ("block", Json.Arr (List.map (fun p -> Json.Int p) block)) ]
  | Trace.E_note { time; proc; note } ->
    obj "note" time [ ("proc", Json.Int proc); ("note", Json.String note) ]
  | Trace.E_decide { time; proc; value } ->
    obj "decide" time [ ("proc", Json.Int proc); ("value", value_to_json value) ]
  | Trace.E_crash { time; proc } -> obj "crash" time [ ("proc", Json.Int proc) ]

let to_json value_to_json m trace =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("meta", meta_to_json m);
      ("events", Json.Arr (List.map (event_to_json value_to_json) trace));
    ]

(* ------------------------------------------------------------------ *)
(* parsing                                                              *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let int_field ctx name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | _ -> err "%s: missing int %S" ctx name

let int_list_field ctx name j =
  match Json.member name j with
  | Some (Json.Arr items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.Int i :: rest -> go (i :: acc) rest
      | _ -> err "%s: %S contains a non-int" ctx name
    in
    go [] items
  | _ -> err "%s: missing int array %S" ctx name

let meta_of_json j =
  match Json.member "meta" j with
  | None -> Error "missing \"meta\" object"
  | Some m ->
    let* protocol =
      match Json.member "protocol" m with
      | Some (Json.String s) -> Ok s
      | _ -> Error "meta: missing string \"protocol\""
    in
    let* procs = int_field "meta" "procs" m in
    let* rounds = int_field "meta" "rounds" m in
    let* seed =
      match Json.member "seed" m with
      | Some (Json.Int s) -> Ok (Some s)
      | Some Json.Null | None -> Ok None
      | Some _ -> Error "meta: \"seed\" is not an int"
    in
    let* crash = int_list_field "meta" "crash" m in
    Ok { protocol; procs; rounds; seed; crash }

let event_of_json value_of_json i j =
  let ctx = Printf.sprintf "event %d" i in
  let* ev =
    match Json.member "ev" j with
    | Some (Json.String s) -> Ok s
    | _ -> err "%s: missing string \"ev\"" ctx
  in
  let* time = int_field ctx "t" j in
  let value name =
    match Json.member name j with
    | Some v -> value_of_json v
    | None -> err "%s: missing %S" ctx name
  in
  let value_opt name =
    match Json.member name j with
    | Some Json.Null -> Ok None
    | Some v -> Result.map Option.some (value_of_json v)
    | None -> err "%s: missing %S" ctx name
  in
  match ev with
  | "write" ->
    let* proc = int_field ctx "proc" j in
    let* value = value "value" in
    Ok (Trace.E_write { time; proc; value })
  | "read" ->
    let* proc = int_field ctx "proc" j in
    let* cell = int_field ctx "cell" j in
    let* value = value_opt "value" in
    Ok (Trace.E_read { time; proc; cell; value })
  | "snapshot" ->
    let* proc = int_field ctx "proc" j in
    let* view =
      match Json.member "view" j with
      | Some (Json.Arr items) ->
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | Json.Null :: rest -> go (None :: acc) rest
          | v :: rest ->
            let* v = value_of_json v in
            go (Some v :: acc) rest
        in
        go [] items
      | _ -> err "%s: missing array \"view\"" ctx
    in
    Ok (Trace.E_snapshot { time; proc; view })
  | "arrive" ->
    let* proc = int_field ctx "proc" j in
    let* level = int_field ctx "level" j in
    let* value = value "value" in
    Ok (Trace.E_arrive { time; proc; level; value })
  | "fire" ->
    let* level = int_field ctx "level" j in
    let* block = int_list_field ctx "block" j in
    Ok (Trace.E_fire { time; level; block })
  | "note" ->
    let* proc = int_field ctx "proc" j in
    let* note =
      match Json.member "note" j with
      | Some (Json.String s) -> Ok s
      | _ -> err "%s: missing string \"note\"" ctx
    in
    Ok (Trace.E_note { time; proc; note })
  | "decide" ->
    let* proc = int_field ctx "proc" j in
    let* value = value "value" in
    Ok (Trace.E_decide { time; proc; value })
  | "crash" ->
    let* proc = int_field ctx "proc" j in
    Ok (Trace.E_crash { time; proc })
  | other -> err "%s: unknown event kind %S" ctx other

let of_json value_of_json j =
  let* () =
    match Json.member "schema" j with
    | Some (Json.String v) when v = schema_version -> Ok ()
    | Some (Json.String v) -> err "schema is %S, expected %S" v schema_version
    | _ -> Error "missing \"schema\" tag"
  in
  let* m = meta_of_json j in
  let* events =
    match Json.member "events" j with
    | Some (Json.Arr items) -> Ok items
    | _ -> Error "missing \"events\" array"
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      let* e = event_of_json value_of_json i e in
      go (i + 1) (e :: acc) rest
  in
  let* trace = go 0 [] events in
  Ok (m, trace)

(* The producer-side validator is the parser itself, value-agnostic: any
   JSON is accepted as a payload, everything structural is checked. *)
let validate j = Result.map ignore (of_json (fun v -> Ok v) j)

let string_value s = Json.String s

let string_of_value = function
  | Json.String s -> Ok s
  | _ -> Error "value is not a string"

(* ------------------------------------------------------------------ *)
(* deterministic replay                                                 *)
(* ------------------------------------------------------------------ *)

let decisions_of trace =
  (* Exactly the adversary's decision sequence: every Step emits exactly one
     cell-operation event, every Fire/Crash its own event; arrive/note/decide
     events are settled eagerly by the runtime and are regenerated on replay. *)
  List.filter_map
    (function
      | Trace.E_write { proc; _ } | Trace.E_read { proc; _ } | Trace.E_snapshot { proc; _ } ->
        Some (Runtime.Step proc)
      | Trace.E_fire { level; block; _ } -> Some (Runtime.Fire (level, block))
      | Trace.E_crash { proc; _ } -> Some (Runtime.Crash proc)
      | Trace.E_arrive _ | Trace.E_note _ | Trace.E_decide _ -> None)
    trace

let replay decisions =
  let rest = ref decisions in
  fun (_ : Runtime.view) ->
    match !rest with
    | [] -> Runtime.Halt
    | d :: tl ->
      rest := tl;
      d

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                      *)
(* ------------------------------------------------------------------ *)

module Te = Wfc_obs.Trace_event

(* One logical firing tick = 1 ms of viewer time, so single-tick intervals
   stay visible at default zoom. *)
let tick_us = 1000

let to_trace_events ?(pid = 0) ~show trace =
  let nprocs =
    1
    + List.fold_left
        (fun acc e ->
          let m = match Trace.proc_of_event e with Some p -> max acc p | None -> acc in
          match e with
          | Trace.E_fire { block; _ } -> List.fold_left max m block
          | _ -> m)
        (-1) trace
  in
  let adversary_tid = nprocs in
  let names =
    Te.process_name ~pid "wfc runtime"
    :: Te.thread_name ~pid ~tid:adversary_tid "adversary"
    :: List.init nprocs (fun p -> Te.thread_name ~pid ~tid:p (Printf.sprintf "P%d" p))
  in
  (* pending WriteRead per process: arrive time and level *)
  let waiting = Hashtbl.create 8 in
  let events =
    List.concat_map
      (fun e ->
        match e with
        | Trace.E_write { time; proc; value } ->
          [
            Te.instant ~cat:"cell" ~name:"write" ~pid ~tid:proc ~ts:(time * tick_us)
              ~args:[ ("value", Json.String (show value)) ]
              ();
          ]
        | Trace.E_read { time; proc; cell; value } ->
          [
            Te.instant ~cat:"cell" ~name:(Printf.sprintf "read C%d" cell) ~pid ~tid:proc
              ~ts:(time * tick_us)
              ~args:
                [ ("value", match value with None -> Json.Null | Some v -> Json.String (show v)) ]
              ();
          ]
        | Trace.E_snapshot { time; proc; _ } ->
          [ Te.instant ~cat:"cell" ~name:"snapshot" ~pid ~tid:proc ~ts:(time * tick_us) () ]
        | Trace.E_arrive { time; proc; level; _ } ->
          Hashtbl.replace waiting proc (time, level);
          []
        | Trace.E_fire { time; level; block } ->
          let spans =
            List.filter_map
              (fun p ->
                match Hashtbl.find_opt waiting p with
                | Some (t0, l) when l = level ->
                  Hashtbl.remove waiting p;
                  Some
                    (Te.complete ~cat:"iis" ~name:(Printf.sprintf "WriteRead M%d" level) ~pid
                       ~tid:p ~ts:(t0 * tick_us)
                       ~dur:((time - t0) * tick_us)
                       ())
                | _ -> None)
              block
          in
          spans
          @ [
              Te.instant ~cat:"iis" ~name:(Printf.sprintf "fire M%d" level) ~pid
                ~tid:adversary_tid ~ts:(time * tick_us)
                ~args:[ ("block", Json.Arr (List.map (fun p -> Json.Int p) block)) ]
                ();
            ]
        | Trace.E_note { time; proc; note } ->
          [ Te.instant ~cat:"note" ~name:note ~pid ~tid:proc ~ts:(time * tick_us) () ]
        | Trace.E_decide { time; proc; value } ->
          [
            Te.instant ~cat:"decide" ~name:"decide" ~pid ~tid:proc ~ts:(time * tick_us)
              ~args:[ ("value", Json.String (show value)) ]
              ();
          ]
        | Trace.E_crash { time; proc } ->
          [ Te.instant ~cat:"crash" ~name:"crash" ~pid ~tid:proc ~ts:(time * tick_us) () ])
      trace
  in
  names @ events
