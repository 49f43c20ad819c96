(* The question catalogue and its golden verdict bytes.

   A question is one [wfc query]: a named task instance, a level bound and a
   computation model. The catalogue keeps every candidate question that
   decides (solvable or unsolvable) under the default node budget, each with
   the MD5 and length of its canonical verdict bytes
   ([Store.verdict_json], the object [wfc query --verdict-out] writes);
   candidates that exhaust the budget are listed apart with their measured
   inline time, since they are never stored and every ask would re-solve. *)

module Json = Wfc_obs.Json

type question = {
  task : string;
  procs : int;
  param : int;
  max_level : int;
  model : string;
}

type golden = { verdict : string; bytes : int; md5 : string }

type t = {
  questions : (question * golden) array;
  excluded : (question * string) list;
}

let models = [ "wait-free"; "t-resilient:1"; "k-set:2" ]

let levels = [ 1; 2 ]

(* (task, procs, param) instances; [param] is ignored by the tasks without
   one but still travels in the spec string, so it is pinned here *)
let instances =
  [
    ("consensus", 2, 2);
    ("consensus", 3, 2);
    ("set-consensus", 2, 1);
    ("set-consensus", 2, 2);
    ("set-consensus", 3, 1);
    ("set-consensus", 3, 2);
    ("set-consensus", 3, 3);
    ("renaming", 2, 2);
    ("renaming", 2, 3);
    ("renaming", 3, 3);
    ("renaming", 3, 4);
    ("renaming", 3, 6);
    ("approx", 2, 2);
    ("approx", 2, 3);
    ("approx", 2, 4);
    ("approx", 3, 2);
    ("identity", 2, 2);
    ("identity", 3, 2);
    ("tas", 2, 1);
    ("tas", 2, 2);
    ("tas", 3, 1);
    ("tas", 3, 2);
    ("fai", 2, 2);
    ("fai", 3, 2);
    ("loop-disk", 3, 2);
    ("loop-circle", 3, 2);
  ]

let candidates () =
  List.concat_map
    (fun (task, procs, param) ->
      List.concat_map
        (fun max_level ->
          List.map (fun model -> { task; procs; param; max_level; model }) models)
        levels)
    instances

let name q =
  Printf.sprintf "%s(procs=%d,param=%d)/L%d/%s" q.task q.procs q.param q.max_level q.model

let spec q =
  {
    Wfc_serve.Wire.task = q.task;
    procs = q.procs;
    param = q.param;
    max_level = q.max_level;
    model = q.model;
    symmetry = true;
    collapse = true;
  }

(* ---- golden bytes ---- *)

let verdict_bytes record = Json.to_string (Wfc_serve.Store.verdict_json record)

let golden_of_bytes ~verdict s =
  { verdict; bytes = String.length s; md5 = Digest.to_hex (Digest.string s) }

let matches g s = String.length s = g.bytes && Digest.to_hex (Digest.string s) = g.md5

(* An inline solve exactly as [wfc solve --verdict-out] renders it: same
   options, same record fields, so the bytes equal what a daemon serves. *)
let solve_inline q =
  let task = Wfc_tasks.Instances.by_name ~name:q.task ~procs:q.procs ~param:q.param in
  let model =
    match Wfc_tasks.Model.of_string q.model with Ok m -> m | Error e -> invalid_arg e
  in
  let budget = Wfc_core.Solvability.default_budget in
  let t0 = Unix.gettimeofday () in
  let verdict =
    Wfc_core.Solvability.solve
      ~opts:(Wfc_core.Solvability.options ~budget ~model ())
      ~max_level:q.max_level task
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let outcome = Wfc_core.Solvability.outcome_of_verdict verdict in
  let record =
    Wfc_serve.Store.record ~task
      ~spec:(Wfc_serve.Wire.spec_to_string (spec q))
      ~model:q.model ~max_level:q.max_level ~budget outcome
  in
  (verdict, record, seconds)

(* ---- the data file ---- *)

let schema = "wfcbench.catalogue.v1"

let question_fields q =
  Json.
    [
      ("task", String q.task);
      ("procs", Int q.procs);
      ("param", Int q.param);
      ("max_level", Int q.max_level);
      ("model", String q.model);
    ]

let to_json c =
  Json.(
    Obj
      [
        ("schema", String schema);
        ("budget", Int Wfc_core.Solvability.default_budget);
        ( "questions",
          Arr
            (Array.to_list
               (Array.map
                  (fun (q, g) ->
                    Obj
                      (question_fields q
                      @ [
                          ("verdict", String g.verdict);
                          ("bytes", Int g.bytes);
                          ("md5", String g.md5);
                        ]))
                  c.questions)) );
        ( "excluded",
          Arr
            (List.map
               (fun (q, reason) -> Obj (question_fields q @ [ ("reason", String reason) ]))
               c.excluded) );
      ])

let field k conv j =
  match Option.bind (Json.member k j) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "catalogue: missing or bad field %S" k)

let str = function Json.String s -> Some s | _ -> None

let int = function Json.Int n -> Some n | _ -> None

let arr = function Json.Arr l -> Some l | _ -> None

let question_of_json j =
  {
    task = field "task" str j;
    procs = field "procs" int j;
    param = field "param" int j;
    max_level = field "max_level" int j;
    model = field "model" str j;
  }

let of_json j =
  if field "schema" str j <> schema then failwith "catalogue: unknown schema";
  if field "budget" int j <> Wfc_core.Solvability.default_budget then
    failwith "catalogue: recorded under a different node budget";
  {
    questions =
      Array.of_list
        (List.map
           (fun q ->
             ( question_of_json q,
               { verdict = field "verdict" str q; bytes = field "bytes" int q; md5 = field "md5" str q }
             ))
           (field "questions" arr j));
    excluded =
      List.map (fun q -> (question_of_json q, field "reason" str q)) (field "excluded" arr j);
  }

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with Ok j -> of_json j | Error e -> failwith ("catalogue: " ^ e)

(* Solves every candidate inline, splitting decided from exhausted. Records
   are content-addressed, so a candidate with the same (I, O, Δ), model and
   level as an earlier one would be answered with the earlier one's record
   (and its [task] string): such aliases are excluded too. *)
let generate ?(progress = fun _ -> ()) () =
  let decided = ref [] and excluded = ref [] in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun q ->
      let verdict, record, seconds = solve_inline q in
      progress (Printf.sprintf "%-48s %-11s %8.1f ms" (name q)
                  (Wfc_core.Solvability.verdict_name verdict) (seconds *. 1000.));
      let key = (record.Wfc_serve.Store.digest, q.model, q.max_level) in
      match (verdict, Hashtbl.find_opt seen key) with
      | Wfc_core.Solvability.Exhausted _, _ ->
        excluded :=
          (q, Printf.sprintf "exhausted the node budget after %.1f s inline" seconds)
          :: !excluded
      | _, Some first ->
        excluded := (q, "same task content as " ^ name first) :: !excluded
      | _, None ->
        Hashtbl.add seen key q;
        let g =
          golden_of_bytes ~verdict:(Wfc_core.Solvability.verdict_name verdict)
            (verdict_bytes record)
        in
        decided := (q, g) :: !decided)
    (candidates ());
  { questions = Array.of_list (List.rev !decided); excluded = List.rev !excluded }
