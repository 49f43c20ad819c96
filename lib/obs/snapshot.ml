type t = {
  counters : (string * int) list;
  histograms : (string * Metrics.histo_stats) list;
  spans : Metrics.span_node list;
}

let take () =
  {
    counters = Metrics.counters_now ();
    histograms = Metrics.histograms_now ();
    spans = Metrics.spans_now ();
  }

let counter_value t name = List.assoc_opt name t.counters

let diff before after =
  let counters =
    List.map
      (fun (name, v) ->
        let v0 = Option.value ~default:0 (List.assoc_opt name before.counters) in
        (name, max 0 (v - v0)))
      after.counters
  in
  let histograms =
    List.filter_map
      (fun ((name, (h : Metrics.histo_stats)) : string * Metrics.histo_stats) ->
        match List.assoc_opt name before.histograms with
        | None -> Some (name, h)
        | Some (h0 : Metrics.histo_stats) ->
          let count = max 0 (h.count - h0.count) in
          if count = 0 then None
          else
            (* min/max of the delta window are not recoverable from two
               aggregates; report the after-side bounds. *)
            Some (name, { h with Metrics.count; sum = max 0. (h.sum -. h0.sum) }))
      after.histograms
  in
  { counters; histograms; spans = after.spans }

(* ------------------------------------------------------------------ *)
(* rendering                                                            *)
(* ------------------------------------------------------------------ *)

(* Which counters exist at all depends on which libraries the binary links
   (registration happens at module init), so zero-valued counters are
   dropped from both renderings: reports stay deterministic across
   binaries and [--stats] stays readable. *)
let live_counters t = List.filter (fun (_, v) -> v <> 0) t.counters

let to_json t =
  let counters = List.map (fun (name, v) -> (name, Json.Int v)) (live_counters t) in
  let histograms =
    List.map
      (fun (name, (h : Metrics.histo_stats)) ->
        ( name,
          Json.Obj
            [
              ("count", Json.Int h.count);
              ("sum", Json.Float h.sum);
              ("mean", Json.Float (h.sum /. float_of_int h.count));
              ("min", Json.Float h.min);
              ("max", Json.Float h.max);
            ] ))
      t.histograms
  in
  let rec span_json (s : Metrics.span_node) =
    Json.Obj
      [
        ("name", Json.String s.Metrics.span_name);
        ("calls", Json.Int s.Metrics.calls);
        ("seconds", Json.Float s.Metrics.total_s);
        ("children", Json.Arr (List.map span_json s.Metrics.children));
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("histograms", Json.Obj histograms);
      ("spans", Json.Arr (List.map span_json t.spans));
    ]

(* Every field [to_json] writes except a histogram's [mean], which is
   derived from [sum] and [count] on the way out. *)
let of_json j =
  let exception Malformed of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  let int = function Json.Int i -> Some i | _ -> None in
  let num = function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None in
  let obj = function Json.Obj fields -> Some fields | _ -> None in
  let arr = function Json.Arr l -> Some l | _ -> None in
  let str = function Json.String s -> Some s | _ -> None in
  let get what conv key o =
    match Option.bind (Json.member key o) conv with
    | Some v -> v
    | None -> bad "%s: %S is missing or malformed" what key
  in
  let section conv key =
    match Json.member key j with None -> [] | Some _ -> get "metrics" conv key j
  in
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let rec span s =
    let get conv key = get "span" conv key s in
    {
      Metrics.span_name = get str "name";
      calls = get int "calls";
      total_s = get num "seconds";
      children = List.map span (get arr "children");
    }
  in
  match
    if Option.is_none (obj j) then bad "metrics snapshot is not an object";
    let counter (name, v) =
      match int v with Some v -> (name, v) | None -> bad "counter %S is not an int" name
    in
    let histogram (name, h) =
      let get conv key = get (Printf.sprintf "histogram %S" name) conv key h in
      let count = get int "count" and sum = get num "sum" in
      (name, { Metrics.count; sum; min = get num "min"; max = get num "max" })
    in
    {
      counters = List.map counter (by_name (section obj "counters"));
      histograms = List.map histogram (by_name (section obj "histograms"));
      spans = List.map span (section arr "spans");
    }
  with
  | t -> Ok t
  | exception Malformed m -> Error m

let to_text t =
  let counters = live_counters t in
  let buf = Buffer.create 256 in
  let name_width =
    List.fold_left
      (fun w (name, _) -> max w (String.length name))
      0
      (counters @ List.map (fun (n, _) -> (n, 0)) t.histograms)
  in
  if counters <> [] then begin
    Buffer.add_string buf "counters\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-*s %12d\n" name_width name v))
      counters
  end;
  if t.histograms <> [] then begin
    Buffer.add_string buf "timers\n";
    List.iter
      (fun (name, (h : Metrics.histo_stats)) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-*s count=%-6d mean=%.6f min=%.6f max=%.6f\n" name_width name
             h.count
             (h.sum /. float_of_int h.count)
             h.min h.max))
      t.histograms
  end;
  if t.spans <> [] then begin
    Buffer.add_string buf "spans\n";
    let rec walk depth (s : Metrics.span_node) =
      Buffer.add_string buf
        (Printf.sprintf "  %s%-*s %4d call%s %10.6fs\n"
           (String.make (2 * depth) ' ')
           (max 1 (name_width - (2 * depth)))
           s.Metrics.span_name s.Metrics.calls
           (if s.Metrics.calls = 1 then " " else "s")
           s.Metrics.total_s);
      List.iter (walk (depth + 1)) s.Metrics.children
    in
    List.iter (walk 0) t.spans
  end;
  if Buffer.length buf = 0 then "(no metrics recorded)\n" else Buffer.contents buf

(* Counters are printed as given, zeros included; a histogram is a
   summary with no quantiles. *)
let to_prometheus t =
  let mangle name =
    "wfc_"
    ^ String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c -> c | _ -> '_') name
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      let n = mangle name in
      Printf.bprintf buf "# TYPE %s counter\n%s %d\n" n n v)
    t.counters;
  List.iter
    (fun (name, (h : Metrics.histo_stats)) ->
      let n = mangle name in
      Printf.bprintf buf "# TYPE %s summary\n%s_count %d\n%s_sum %.6f\n" n n h.count n h.sum)
    t.histograms;
  Buffer.contents buf
