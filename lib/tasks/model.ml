open Wfc_topology

type restriction = All | Per_round of (Ordered_partition.t -> bool)

type t = { name : string; description : string; restriction : restriction }

let wait_free =
  {
    name = "wait-free";
    description = "all IIS runs (the paper's wait-free model)";
    restriction = All;
  }

let block_sizes partition = List.map List.length partition

let participants partition = List.fold_left (fun n b -> n + List.length b) 0 partition

let t_resilient ~t =
  if t < 0 then invalid_arg "Model.t_resilient: t must be >= 0";
  {
    name = Printf.sprintf "t-resilient:%d" t;
    description =
      Printf.sprintf
        "runs whose every view misses at most %d process(es): each round's first \
         concurrency class keeps >= participants - %d members"
        t t;
    restriction =
      Per_round
        (fun partition ->
          match block_sizes partition with
          | [] -> true
          | first :: _ -> first >= participants partition - t);
  }

let k_set_affine ~k =
  if k < 1 then invalid_arg "Model.k_set_affine: k must be >= 1";
  {
    name = Printf.sprintf "k-set:%d" k;
    description =
      Printf.sprintf
        "runs in which every round grants the full snapshot to >= %d process(es) (last \
         concurrency class has size >= %d, clamped to the participant count)"
        k k;
    restriction =
      Per_round
        (fun partition ->
          match List.rev (block_sizes partition) with
          | [] -> true
          | last :: _ -> last >= min k (participants partition));
  }

let equal a b = String.equal a.name b.name

let to_string m = m.name

let of_string s =
  let s = String.trim s in
  let parametric ~prefix ~of_int =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      match int_of_string_opt (String.sub s plen (String.length s - plen)) with
      | Some n -> (
        match of_int n with
        | m -> Some (Ok m)
        | exception Invalid_argument e -> Some (Error e))
      | None -> Some (Error (Printf.sprintf "model %S: %S takes an integer parameter" s prefix))
    else None
  in
  if s = "wait-free" then Ok wait_free
  else
    match parametric ~prefix:"t-resilient:" ~of_int:(fun t -> t_resilient ~t) with
    | Some r -> r
    | None -> (
      match parametric ~prefix:"k-set:" ~of_int:(fun k -> k_set_affine ~k) with
      | Some r -> r
      | None ->
        Error
          (Printf.sprintf
             "unknown model %S (expected wait-free, t-resilient:T or k-set:K)" s))

let slug_of_name name = String.map (function ':' -> '-' | c -> c) name

let family m =
  match String.index_opt m.name ':' with Some i -> String.sub m.name 0 i | None -> m.name

let builtins =
  [
    ("wait-free", wait_free.description);
    ("t-resilient:T", "admit runs missing at most T processes per view (T >= 0)");
    ( "k-set:K",
      "admit runs granting the full round snapshot to at least K processes (K >= 1; K=1 \
       is wait-free)" );
  ]
