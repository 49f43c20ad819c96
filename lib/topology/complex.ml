type t = {
  name : string;
  facets : Simplex.t list; (* maximal simplices, sorted *)
  nfacets : int; (* cached [List.length facets] *)
  cdim : int; (* cached max facet dimension *)
  mutable closure : unit Simplex.Tbl.t option; (* cached face set, id-keyed *)
  mutable by_dim : Simplex.t list array option; (* cached faces per dimension *)
}

let name c = c.name

let with_name name c = { c with name }

let facets c = c.facets

let num_facets c = c.nfacets

(* Quadratic fallback for very large simplices, where enumerating all 2^card
   faces would cost more than pairwise subset scans. *)
let drop_non_maximal_scan simplices =
  let sorted = List.sort (fun a b -> compare (Simplex.card b) (Simplex.card a)) simplices in
  let keep = ref [] in
  let kept_tbl = Simplex.Tbl.create 64 in
  let is_dominated s =
    (* [sorted] is scanned largest-first, so any strict superset of [s] is
       already in [keep]. Containment testing per kept facet. *)
    List.exists (fun t -> Simplex.card t > Simplex.card s && Simplex.subset s t) !keep
  in
  List.iter
    (fun s ->
      if (not (Simplex.Tbl.mem kept_tbl s)) && not (is_dominated s) then begin
        Simplex.Tbl.add kept_tbl s ();
        keep := s :: !keep
      end)
    sorted;
  List.sort Simplex.compare !keep

(* Maximality filtering bucketed by cardinality over interned ids: scan
   largest-first; a simplex survives unless a previously kept facet already
   marked it as one of its proper faces. Every face of a kept facet is
   marked, so domination is transitive without any subset tests. Linear in
   the total closure size instead of quadratic in the number of inputs. *)
let drop_non_maximal simplices =
  let seen = Simplex.Tbl.create 256 in
  let uniq =
    List.filter
      (fun s ->
        if Simplex.Tbl.mem seen s then false
        else begin
          Simplex.Tbl.add seen s ();
          true
        end)
      simplices
  in
  let max_card = List.fold_left (fun acc s -> max acc (Simplex.card s)) 0 uniq in
  if max_card > 16 then drop_non_maximal_scan uniq
  else begin
    let buckets = Array.make (max_card + 1) [] in
    List.iter (fun s -> buckets.(Simplex.card s) <- s :: buckets.(Simplex.card s)) uniq;
    let dominated = Simplex.Tbl.create 1024 in
    let keep = ref [] in
    for c = max_card downto 1 do
      List.iter
        (fun s ->
          if not (Simplex.Tbl.mem dominated s) then begin
            keep := s :: !keep;
            List.iter (fun f -> Simplex.Tbl.replace dominated f ()) (Simplex.proper_faces s)
          end)
        buckets.(c)
    done;
    List.sort Simplex.compare !keep
  end

let of_simplices ?(name = "") simplices =
  if simplices = [] then invalid_arg "Complex.of_simplices: empty complex";
  List.iter
    (fun s ->
      if Simplex.is_empty s then invalid_arg "Complex.of_simplices: empty simplex";
      if Simplex.min_vertex s < 0 then invalid_arg "Complex.of_simplices: negative vertex")
    simplices;
  let facets = drop_non_maximal simplices in
  let nfacets = List.length facets in
  let cdim = List.fold_left (fun acc f -> max acc (Simplex.dim f)) (-1) facets in
  { name; facets; nfacets; cdim; closure = None; by_dim = None }

let of_facets ?name facets = of_simplices ?name (List.map Simplex.of_list facets)

let dim c = c.cdim

let closure c =
  match c.closure with
  | Some tbl -> tbl
  | None ->
    (* a facet of dimension d has 2^(d+1) - 1 faces: size the table for
       that bound, capped at 1024 (it grows past the cap on its own). Its
       iteration order reaches no caller: [by_dim] sorts every bucket. *)
    let bound =
      if c.cdim >= 10 then 1024 else min 1024 (c.nfacets * ((1 lsl (c.cdim + 1)) - 1))
    in
    let tbl = Simplex.Tbl.create bound in
    List.iter
      (fun facet ->
        List.iter
          (fun face -> if not (Simplex.Tbl.mem tbl face) then Simplex.Tbl.add tbl face ())
          (Simplex.faces facet))
      c.facets;
    c.closure <- Some tbl;
    tbl

let by_dim c =
  match c.by_dim with
  | Some a -> a
  | None ->
    let n = dim c in
    let buckets = Array.make (n + 1) [] in
    Simplex.Tbl.iter (fun s () -> buckets.(Simplex.dim s) <- s :: buckets.(Simplex.dim s)) (closure c);
    let a = Array.map (List.sort Simplex.compare) buckets in
    c.by_dim <- Some a;
    a

let simplices c = List.concat (Array.to_list (by_dim c))

let num_simplices c = Simplex.Tbl.length (closure c)

let faces c ~dim:k =
  let a = by_dim c in
  if k < 0 || k >= Array.length a then [] else a.(k)

let vertices c = List.map Simplex.min_vertex (faces c ~dim:0)

let num_vertices c = List.length (faces c ~dim:0)

let max_vertex c = List.fold_left (fun acc v -> max acc v) (-1) (vertices c)

let mem s c = Simplex.Tbl.mem (closure c) s

let mem_vertex v c = mem (Simplex.singleton v) c

let is_pure c =
  let n = dim c in
  List.for_all (fun f -> Simplex.dim f = n) c.facets

let is_facet s c = List.exists (Simplex.equal s) c.facets

let f_vector c = Array.map List.length (by_dim c)

let euler_characteristic c =
  let f = f_vector c in
  let acc = ref 0 in
  Array.iteri (fun k count -> acc := !acc + (if k mod 2 = 0 then count else -count)) f;
  !acc

let skeleton k c =
  if k < 0 then invalid_arg "Complex.skeleton: negative dimension";
  if k >= dim c then c
  else
    of_simplices ~name:(Printf.sprintf "%s-skel%d" c.name k)
      (List.concat_map (fun f -> Simplex.subsets_of_card (k + 1) f) c.facets)

let facet_cover c s = List.filter (fun f -> Simplex.subset s f) c.facets

let star s c =
  if not (mem s c) then raise Not_found;
  of_simplices ~name:(c.name ^ "-star") (facet_cover c s)

let link s c =
  if not (mem s c) then raise Not_found;
  let cover = facet_cover c s in
  let link_facets = List.filter_map (fun f ->
      let d = Simplex.diff f s in
      if Simplex.is_empty d then None else Some d)
      cover
  in
  if link_facets = [] then None else Some (of_simplices ~name:(c.name ^ "-link") link_facets)

let boundary c =
  if not (is_pure c) then invalid_arg "Complex.boundary: complex is not pure";
  let n = dim c in
  if n = 0 then None
  else begin
    let count = Simplex.Tbl.create 256 in
    List.iter
      (fun facet ->
        List.iter
          (fun face ->
            let k = try Simplex.Tbl.find count face with Not_found -> 0 in
            Simplex.Tbl.replace count face (k + 1))
          (Simplex.facets facet))
      c.facets;
    let bdry = Simplex.Tbl.fold (fun face k acc -> if k = 1 then face :: acc else acc) count [] in
    if bdry = [] then None else Some (of_simplices ~name:(c.name ^ "-bdry") bdry)
  end

let induced c vs =
  let vset = List.sort_uniq Stdlib.compare vs in
  let keep = Simplex.of_sorted vset in
  let survivors = List.filter_map (fun f ->
      let s = Simplex.inter f keep in
      if Simplex.is_empty s then None else Some s)
      c.facets
  in
  if survivors = [] then None else Some (of_simplices ~name:(c.name ^ "-ind") survivors)

(* Union-find over an int-indexed array. *)
let components_of_edges nvertex_ids edges =
  let ids = Array.of_list nvertex_ids in
  let index = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i v -> Hashtbl.replace index v i) ids;
  let parent = Array.init (Array.length ids) (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter (fun (a, b) -> union (Hashtbl.find index a) (Hashtbl.find index b)) edges;
  let buckets = Hashtbl.create 16 in
  Array.iteri
    (fun i v ->
      let r = find i in
      let l = try Hashtbl.find buckets r with Not_found -> [] in
      Hashtbl.replace buckets r (v :: l))
    ids;
  Hashtbl.fold (fun _ l acc -> List.sort Stdlib.compare l :: acc) buckets []
  |> List.sort Stdlib.compare

let connected_components c =
  let edges =
    List.concat_map
      (fun f ->
        match Simplex.to_list f with
        | [] | [ _ ] -> []
        | v0 :: rest -> List.map (fun v -> (v0, v)) rest)
      c.facets
  in
  components_of_edges (vertices c) edges

let is_connected c = List.length (connected_components c) <= 1

let is_pseudomanifold c =
  is_pure c
  &&
  let n = dim c in
  if n = 0 then num_facets c = 1
  else begin
    (* Ridge incidence at most two, and facet adjacency connected. *)
    let count = Simplex.Tbl.create 256 in
    List.iter
      (fun facet ->
        List.iter
          (fun ridge ->
            let k = try Simplex.Tbl.find count ridge with Not_found -> 0 in
            Simplex.Tbl.replace count ridge (k + 1))
          (Simplex.facets facet))
      c.facets;
    let ok_incidence = Simplex.Tbl.fold (fun _ k acc -> acc && k <= 2) count true in
    ok_incidence
    &&
    (* Connectivity of the facet graph: walk ridges shared by two facets. *)
    let facet_arr = Array.of_list c.facets in
    let index = Simplex.Tbl.create 64 in
    Array.iteri (fun i f -> Simplex.Tbl.add index f i) facet_arr;
    let ridge_owners = Simplex.Tbl.create 256 in
    Array.iteri
      (fun i f ->
        List.iter
          (fun ridge ->
            let l = try Simplex.Tbl.find ridge_owners ridge with Not_found -> [] in
            Simplex.Tbl.replace ridge_owners ridge (i :: l))
          (Simplex.facets f))
      facet_arr;
    let seen = Array.make (Array.length facet_arr) false in
    let rec dfs i =
      if not seen.(i) then begin
        seen.(i) <- true;
        List.iter
          (fun ridge ->
            List.iter dfs (Simplex.Tbl.find ridge_owners ridge))
          (Simplex.facets facet_arr.(i))
      end
    in
    if Array.length facet_arr > 0 then dfs 0;
    Array.for_all (fun b -> b) seen
  end

let relabel f c =
  let rename s =
    let mapped = List.map f (Simplex.to_list s) in
    let s' = Simplex.of_list mapped in
    if Simplex.card s' <> Simplex.card s then
      invalid_arg "Complex.relabel: renaming is not injective on a simplex";
    s'
  in
  of_simplices ~name:c.name (List.map rename c.facets)

let disjoint_union a b =
  let va = vertices a and vb = vertices b in
  let overlap = List.exists (fun v -> List.mem v vb) va in
  if overlap then invalid_arg "Complex.disjoint_union: vertex sets overlap";
  of_simplices ~name:(a.name ^ "+" ^ b.name) (a.facets @ b.facets)

let union a b = of_simplices ~name:(a.name ^ "|" ^ b.name) (a.facets @ b.facets)

let equal a b = List.equal Simplex.equal a.facets b.facets

let subcomplex a b = List.for_all (fun f -> mem f b) a.facets

let full_simplex n =
  if n < 0 then invalid_arg "Complex.full_simplex";
  of_facets ~name:(Printf.sprintf "s%d" n) [ List.init (n + 1) (fun i -> i) ]

let pp ppf c =
  Format.fprintf ppf "@[<v>complex %s (dim %d):@,%a@]"
    (if c.name = "" then "<anon>" else c.name)
    (dim c)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Simplex.pp)
    c.facets

let pp_stats ppf c =
  let f = f_vector c in
  Format.fprintf ppf "%s: dim=%d facets=%d f=(%s) chi=%d"
    (if c.name = "" then "<anon>" else c.name)
    (dim c) (num_facets c)
    (String.concat "," (Array.to_list (Array.map string_of_int f)))
    (euler_characteristic c)
