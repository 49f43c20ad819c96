type t = { complex : Complex.t; table : (int, int) Hashtbl.t }

let is_properly_colored complex ~color =
  List.for_all
    (fun facet ->
      let cs = List.map color (Simplex.to_list facet) in
      List.length (List.sort_uniq Stdlib.compare cs) = List.length cs)
    (Complex.facets complex)

let make ?(check = true) complex ~color =
  let table = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace table v (color v)) (Complex.vertices complex);
  if check && not (is_properly_colored complex ~color) then
    invalid_arg "Chromatic.make: coloring is not proper (simplex with repeated color)";
  { complex; table }

let of_assoc complex assoc =
  let lookup v =
    match List.assoc_opt v assoc with
    | Some c -> c
    | None -> invalid_arg "Chromatic.of_assoc: vertex without a color"
  in
  make complex ~color:lookup

let complex t = t.complex

let color t v =
  match Hashtbl.find_opt t.table v with
  | Some c -> c
  | None -> raise Not_found

let colors t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.table [] |> List.sort_uniq Stdlib.compare

let num_colors t = List.length (colors t)

let simplex_colors t s = Simplex.of_list (List.map (color t) (Simplex.to_list s))

let vertex_with_color t s c = List.find_opt (fun v -> color t v = c) (Simplex.to_list s)

let restrict_colors t cs =
  let allowed = List.sort_uniq Stdlib.compare cs in
  let ok v = List.mem (color t v) allowed in
  let survivors =
    List.filter_map
      (fun facet ->
        let kept = List.filter ok (Simplex.to_list facet) in
        if kept = [] then None else Some (Simplex.of_list kept))
      (Complex.facets t.complex)
  in
  if survivors = [] then None
  else
    let c = Complex.of_simplices ~name:(Complex.name t.complex ^ "-colors") survivors in
    Some (make ~check:false c ~color:(color t))

let sub t subcx = make ~check:false subcx ~color:(color t)

let rename_colors f t =
  let used = colors t in
  let images = List.map f used in
  if List.length (List.sort_uniq Stdlib.compare images) <> List.length used then
    invalid_arg "Chromatic.rename_colors: renaming not injective on used colors";
  make ~check:false t.complex ~color:(fun v -> f (color t v))

let standard_simplex n = make ~check:false (Complex.full_simplex n) ~color:(fun v -> v)

let equal a b =
  Complex.equal a.complex b.complex
  && List.for_all (fun v -> color a v = color b v) (Complex.vertices a.complex)

let pp_stats ppf t =
  Format.fprintf ppf "%a colors=%d" Complex.pp_stats t.complex (num_colors t)
