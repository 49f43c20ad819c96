let isomorphism ?color_src ?color_dst a b =
  if
    Complex.dim a <> Complex.dim b
    || Complex.num_vertices a <> Complex.num_vertices b
    || Complex.num_facets a <> Complex.num_facets b
    || Complex.f_vector a <> Complex.f_vector b
  then None
  else
    (* a vertex and its image agree on color when both sides are colored;
       a coloring on one side only admits no map *)
    let compatible =
      match (color_src, color_dst) with
      | None, None -> fun _ _ -> true
      | Some f, Some g ->
        fun v ->
          let c = f v in
          fun w -> g w = c
      | _ -> fun _ _ -> false
    in
    match Automorphism.(search ~limit:1 ~fuel:max_int ~compatible (table a) (table b)) with
    | m :: _ -> Some (Simplicial_map.make ~src:a ~dst:b (Hashtbl.find m))
    | [] -> None

let isomorphic ?color_src ?color_dst a b =
  Option.is_some (isomorphism ?color_src ?color_dst a b)

let chromatic_isomorphic a b =
  isomorphic
    ~color_src:(Chromatic.color a)
    ~color_dst:(Chromatic.color b)
    (Chromatic.complex a) (Chromatic.complex b)
