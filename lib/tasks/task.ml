open Wfc_topology

type t = {
  name : string;
  procs : int;
  input : Chromatic.t;
  output : Chromatic.t;
  input_label : int -> string;
  output_label : int -> string;
  delta : Simplex.t -> Simplex.t list;
  digest : string;
}

(* Enumerate all assignments of one value (from a per-process list) to each
   process of [participants]. *)
let rec assignments values = function
  | [] -> [ [] ]
  | p :: rest ->
    let tails = assignments values rest in
    List.concat_map (fun v -> List.map (fun tail -> (p, v) :: tail) tails) (values p)

(* The canonical representation names every vertex by its content — the
   (color, label) pair — so the digest is independent of arena vertex ids
   and of every enumeration order that fed [of_relation]. Sorting happens at
   three layers: vertices inside a simplex by color (proper coloring makes
   colors distinct), simplices inside a complex / Δ-image by their rendered
   canonical bytes, and Δ entries by their rendered input simplex. *)
let canonical_json t =
  let open Wfc_obs.Json in
  let simplex_repr chroma label s =
    let vs =
      List.map (fun v -> (Chromatic.color chroma v, label v)) (Simplex.to_list s)
    in
    Arr (List.map (fun (c, l) -> Arr [ Int c; String l ]) (List.sort compare vs))
  in
  (* render each element once, sort on the rendering, then drop it *)
  let sort_by_render l =
    List.map (fun j -> (to_string j, j)) l
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let complex_repr chroma label =
    Complex.facets (Chromatic.complex chroma)
    |> List.map (simplex_repr chroma label)
    |> sort_by_render
  in
  let delta_repr =
    Complex.simplices (Chromatic.complex t.input)
    |> List.map (fun si ->
           Arr
             [
               simplex_repr t.input t.input_label si;
               Arr
                 (sort_by_render
                    (List.map (simplex_repr t.output t.output_label) (t.delta si)));
             ])
    |> sort_by_render
  in
  Obj
    [
      ("delta", Arr delta_repr);
      ("input", Arr (complex_repr t.input t.input_label));
      ("output", Arr (complex_repr t.output t.output_label));
      ("procs", Int t.procs);
    ]

(* [of_relation] calls this once per task; it reads every field but
   [digest], which it fills. *)
let render_digest t = Digest.to_hex (Digest.string (Wfc_obs.Json.to_string (canonical_json t)))

let digest t = t.digest

let of_relation ~name ~procs ~inputs ~outputs ~legal =
  let all = List.init procs (fun i -> i) in
  let subsets = Wfc_model.Schedule.nonempty_subsets all in
  (* vertex registries *)
  let make_registry () =
    let ids = Hashtbl.create 64 and back = Hashtbl.create 64 and next = ref 0 in
    let intern key =
      match Hashtbl.find_opt ids key with
      | Some id -> id
      | None ->
        let id = !next in
        incr next;
        Hashtbl.replace ids key id;
        Hashtbl.replace back id key;
        id
    in
    (intern, back)
  in
  let intern_in, back_in = make_registry () in
  let intern_out, back_out = make_registry () in
  let input_facets = ref [] in
  let output_simplices = ref [] in
  let delta_tbl : Simplex.t list Simplex.Tbl.t = Simplex.Tbl.create 256 in
  List.iter
    (fun participants ->
      let input_tuples = assignments inputs participants in
      let output_tuples = assignments outputs participants in
      List.iter
        (fun input_tuple ->
          let si = Simplex.of_list (List.map intern_in input_tuple) in
          if List.length participants = procs then input_facets := si :: !input_facets;
          let input_fn p = List.assoc p input_tuple in
          let legal_outputs =
            List.filter
              (fun output_tuple ->
                legal ~participants ~input:input_fn ~output:(fun p -> List.assoc p output_tuple))
              output_tuples
          in
          if legal_outputs = [] then
            invalid_arg
              (Printf.sprintf
                 "Task.of_relation(%s): no legal output for participants {%s} with inputs (%s)"
                 name
                 (String.concat "," (List.map string_of_int participants))
                 (String.concat ","
                    (List.map (fun (p, v) -> Printf.sprintf "%d:%s" p v) input_tuple)));
          let so_list =
            List.map (fun tuple -> Simplex.of_list (List.map intern_out tuple)) legal_outputs
          in
          output_simplices := so_list @ !output_simplices;
          Simplex.Tbl.replace delta_tbl si (List.sort_uniq Simplex.compare so_list))
        input_tuples)
    subsets;
  let input_cx = Complex.of_simplices ~name:(name ^ "-in") !input_facets in
  let output_cx = Complex.of_simplices ~name:(name ^ "-out") !output_simplices in
  let color_of back v = fst (Hashtbl.find back v) in
  let label_of back v = snd (Hashtbl.find back v) in
  let t =
    {
      name;
      procs;
      input = Chromatic.make input_cx ~color:(color_of back_in);
      output = Chromatic.make output_cx ~color:(color_of back_out);
      input_label = label_of back_in;
      output_label = label_of back_out;
      delta =
        (fun si ->
          match Simplex.Tbl.find_opt delta_tbl si with
          | Some l -> l
          | None -> invalid_arg "Task.delta: not an input simplex");
      digest = "";
    }
  in
  { t with digest = render_digest t }

let find_vertex chroma label_of ~proc ~value =
  List.find_opt
    (fun v -> Chromatic.color chroma v = proc && label_of v = value)
    (Complex.vertices (Chromatic.complex chroma))

let input_vertex t ~proc ~value = find_vertex t.input t.input_label ~proc ~value

let output_vertex t ~proc ~value = find_vertex t.output t.output_label ~proc ~value

let proc_of_input t v = Chromatic.color t.input v

let proc_of_output t v = Chromatic.color t.output v

let allows t si so =
  List.exists (fun m -> Simplex.subset so m) (t.delta si)

let well_formed t =
  let icx = Chromatic.complex t.input and ocx = Chromatic.complex t.output in
  let errors = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun si ->
      match t.delta si with
      | exception Invalid_argument _ -> add "delta undefined on %s" (Simplex.to_string si)
      | [] -> add "delta empty on %s" (Simplex.to_string si)
      | sos ->
        List.iter
          (fun so ->
            if not (Complex.mem so ocx) then
              add "delta(%s) contains non-simplex %s" (Simplex.to_string si)
                (Simplex.to_string so);
            let ci = Chromatic.simplex_colors t.input si in
            let co = Chromatic.simplex_colors t.output so in
            if not (Simplex.equal ci co) then
              add "delta(%s): color mismatch with %s" (Simplex.to_string si)
                (Simplex.to_string so))
          sos)
    (Complex.simplices icx);
  match !errors with [] -> Ok () | errs -> Error (String.concat "; " (List.rev errs))

let pp_stats ppf t =
  Format.fprintf ppf "task %s: procs=%d@ input: %a@ output: %a" t.name t.procs
    Chromatic.pp_stats t.input Chromatic.pp_stats t.output

let labels_of_color chroma label_of color =
  Complex.vertices (Chromatic.complex chroma)
  |> List.filter (fun v -> Chromatic.color chroma v = color)
  |> List.map label_of

let tuple_allowed t ~participants ~input ~output =
  (* the full output tuple is allowed for the full input tuple *)
  let si =
    Simplex.of_list
      (List.map
         (fun p ->
           match input_vertex t ~proc:p ~value:(input p) with
           | Some v -> v
           | None -> invalid_arg "Task.tuple_allowed: unknown input value")
         participants)
  in
  match
    List.map
      (fun p ->
        match output_vertex t ~proc:p ~value:(output p) with
        | Some v -> Some v
        | None -> None)
      participants
  with
  | outs when List.for_all Option.is_some outs ->
    allows t si (Simplex.of_list (List.map Option.get outs))
  | _ -> false

let split_pair s =
  match String.index_opt s '|' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> invalid_arg "Task.product: malformed pair label"

let product t1 t2 =
  if t1.procs <> t2.procs then invalid_arg "Task.product: different process counts";
  let pairs l1 l2 = List.concat_map (fun a -> List.map (fun b -> a ^ "|" ^ b) l2) l1 in
  of_relation
    ~name:(Printf.sprintf "%s*%s" t1.name t2.name)
    ~procs:t1.procs
    ~inputs:(fun i ->
      pairs (labels_of_color t1.input t1.input_label i) (labels_of_color t2.input t2.input_label i))
    ~outputs:(fun i ->
      pairs (labels_of_color t1.output t1.output_label i)
        (labels_of_color t2.output t2.output_label i))
    ~legal:(fun ~participants ~input ~output ->
      tuple_allowed t1 ~participants
        ~input:(fun p -> fst (split_pair (input p)))
        ~output:(fun p -> fst (split_pair (output p)))
      && tuple_allowed t2 ~participants
           ~input:(fun p -> snd (split_pair (input p)))
           ~output:(fun p -> snd (split_pair (output p))))

(* ---- task symmetries ---- *)

type automorphism = {
  a_input : (int, int) Hashtbl.t;
  a_output : (int, int) Hashtbl.t;
}

let map_simplex tbl s =
  Simplex.of_list (List.map (fun v -> Hashtbl.find tbl v) (Simplex.to_list s))

let is_identity tbl = Hashtbl.fold (fun k v acc -> acc && k = v) tbl true

let automorphisms ?(limit = 32) t =
  let colors = Chromatic.colors t.input in
  let input_simplices = Complex.simplices (Chromatic.complex t.input) in
  let sorted = List.sort Simplex.compare in
  let equivariant a_input a_output =
    List.for_all
      (fun si ->
        match t.delta (map_simplex a_input si) with
        | lhs ->
          List.equal Simplex.equal (sorted lhs)
            (sorted (List.map (map_simplex a_output) (t.delta si)))
        | exception Invalid_argument _ -> false)
      input_simplices
  in
  (* the per-complex tables are built once, for every color permutation *)
  let input_autos = Automorphism.automorphisms t.input in
  let output_autos = Automorphism.automorphisms t.output in
  let found = ref [] and n = ref 0 in
  List.iter
    (fun perm ->
      if !n < limit then
        let ins = input_autos ~perm in
        let outs = output_autos ~perm in
        List.iter
          (fun a_input ->
            List.iter
              (fun a_output ->
                if
                  !n < limit
                  && not (is_identity a_input && is_identity a_output)
                  && equivariant a_input a_output
                then begin
                  found := { a_input; a_output } :: !found;
                  incr n
                end)
              outs)
          ins)
    (Automorphism.color_permutations colors);
  List.rev !found
