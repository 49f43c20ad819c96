type t = {
  kind : string;
  levels : int;
  base : Chromatic.t;
  cx : Chromatic.t;
  carrier : int -> Simplex.t;
  point : int -> Point.t;
}

let make ~kind ~levels ~base ~cx ~carrier ~point = { kind; levels; base; cx; carrier; point }

let base_vertex_order base = Complex.vertices (Chromatic.complex base)

let base_index base =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace tbl v i) (base_vertex_order base);
  tbl

let identity base =
  let idx = base_index base in
  let n = Hashtbl.length idx in
  make ~kind:"id" ~levels:0 ~base ~cx:base
    ~carrier:(fun v -> Simplex.singleton v)
    ~point:(fun v -> Point.unit n (Hashtbl.find idx v))

let simplex_carrier sd s =
  let carrier = Simplex.fold (fun acc v -> Simplex.union acc (sd.carrier v)) Simplex.empty s in
  assert (Complex.mem carrier (Chromatic.complex sd.base));
  carrier

let face sd q =
  let survivors =
    List.filter
      (fun s -> Simplex.subset (simplex_carrier sd s) q)
      (Complex.simplices (Chromatic.complex sd.cx))
  in
  if survivors = [] then None
  else Some (Complex.of_simplices ~name:(Complex.name (Chromatic.complex sd.cx) ^ "-face") survivors)

let boundary_vertices sd =
  let base_cx = Chromatic.complex sd.base in
  let proper v =
    let c = sd.carrier v in
    List.exists (fun f -> Simplex.subset c f && not (Simplex.equal c f)) (Complex.facets base_cx)
  in
  List.filter proper (Complex.vertices (Chromatic.complex sd.cx))

let base_point sd v =
  let idx = base_index sd.base in
  Point.unit (Hashtbl.length idx) (Hashtbl.find idx v)

let base_simplex_points sd s = List.map (base_point sd) (Simplex.to_list s)

let carrier_of_point sd p =
  if not (Point.is_barycentric p) then None
  else begin
    let order = Array.of_list (base_vertex_order sd.base) in
    let support = ref [] in
    Array.iteri
      (fun i v -> if not (Rat.is_zero (Point.coord p i)) then support := v :: !support)
      order;
    let s = Simplex.of_list !support in
    if Complex.mem s (Chromatic.complex sd.base) then Some s else None
  end

let locate_facet sd p =
  let facet_contains f =
    let pts = List.map sd.point (Simplex.to_list f) in
    Point.in_simplex pts p
  in
  List.find_opt facet_contains (Complex.facets (Chromatic.complex sd.cx))

let same_base a b = Complex.equal (Chromatic.complex a.base) (Chromatic.complex b.base)

let is_carrier_preserving a b phi =
  same_base a b
  && List.for_all
       (fun v -> Simplex.equal (a.carrier v) (b.carrier (Simplicial_map.apply_vertex phi v)))
       (Complex.vertices (Chromatic.complex a.cx))

let is_carrier_monotone a b phi =
  same_base a b
  && List.for_all
       (fun v -> Simplex.subset (b.carrier (Simplicial_map.apply_vertex phi v)) (a.carrier v))
       (Complex.vertices (Chromatic.complex a.cx))

(* Chart coordinates of a point within a base simplex [sigma]: restrict the
   barycentric coordinates to sigma's vertices and drop the last one. The
   base simplex itself becomes a chart simplex of scaled volume 1. *)
let chart_point sd sigma p =
  let idx = base_index sd.base in
  let vs = Simplex.to_list sigma in
  let coords = List.map (fun v -> Point.coord p (Hashtbl.find idx v)) vs in
  match List.rev coords with
  | [] -> invalid_arg "Subdiv.chart_point: empty simplex"
  | _last :: rev_front -> Point.of_list (List.rev rev_front)

let check_geometric sd =
  let cx = Chromatic.complex sd.cx in
  let errors = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let order = Array.of_list (base_vertex_order sd.base) in
  (* 1. vertex points barycentric, supported on their carrier *)
  List.iter
    (fun v ->
      let p = sd.point v in
      if not (Point.is_barycentric p) then add "vertex %d: point not barycentric" v
      else begin
        let c = sd.carrier v in
        Array.iteri
          (fun i bv ->
            if (not (Rat.is_zero (Point.coord p i))) && not (Simplex.mem bv c) then
              add "vertex %d: point supported outside carrier" v)
          order
      end)
    (Complex.vertices cx);
  (* 2. facets affinely independent, 3. volumes per base facet sum to 1 *)
  List.iter
    (fun sigma ->
      let covering =
        List.filter
          (fun f -> Simplex.equal (simplex_carrier sd f) sigma)
          (Complex.facets cx)
      in
      if covering = [] then add "base facet %s: not covered" (Simplex.to_string sigma)
      else begin
        let vol = ref Rat.zero in
        List.iter
          (fun f ->
            let pts = List.map (fun v -> chart_point sd sigma (sd.point v)) (Simplex.to_list f) in
            let v = Point.simplex_volume_scaled pts in
            if Rat.is_zero v then
              add "facet %s: degenerate (affinely dependent points)" (Simplex.to_string f);
            vol := Rat.add !vol v)
          covering;
        if not (Rat.equal !vol Rat.one) then
          add "base facet %s: chart volumes sum to %s, expected 1" (Simplex.to_string sigma)
            (Rat.to_string !vol)
      end)
    (Complex.facets (Chromatic.complex sd.base));
  match !errors with
  | [] -> Ok ()
  | errs -> Error (String.concat "; " (List.rev errs))

let mesh_sq sd =
  let dist_sq a b =
    let d = Point.sub a b in
    Rat.sum (List.map (fun x -> Rat.mul x x) (Point.to_list d))
  in
  List.fold_left
    (fun acc e ->
      match Simplex.to_list e with
      | [ u; v ] -> Rat.max acc (dist_sq (sd.point u) (sd.point v))
      | _ -> acc)
    Rat.zero
    (Complex.faces (Chromatic.complex sd.cx) ~dim:1)

let sample_cover_count sd st sigma =
  let vs = Simplex.to_list sigma in
  (* Random interior rational point: positive random weights, normalized. *)
  let weights = List.map (fun _ -> 1 + Random.State.int st 997) vs in
  let total = List.fold_left ( + ) 0 weights in
  let coeffs = List.map (fun w -> Rat.make w total) weights in
  let pts = base_simplex_points sd sigma in
  let p = Point.combine (List.combine coeffs pts) in
  let candidates =
    List.filter
      (fun f -> Simplex.subset (simplex_carrier sd f) sigma)
      (Complex.facets (Chromatic.complex sd.cx))
  in
  List.length
    (List.filter
       (fun f -> Point.in_simplex (List.map sd.point (Simplex.to_list f)) p)
       candidates)
