type vertex_map = (int, int) Hashtbl.t

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let color_permutations colors =
  let colors = List.sort_uniq compare colors in
  List.map
    (fun image ->
      let assoc = List.combine colors image in
      fun c -> List.assoc c assoc)
    (permutations colors)

(* Vertex sets as bit sets over the dense vertex indices [0, V) of one
   complex, in ⌈V / Sys.int_size⌉ words: the search below builds, probes
   and edits them in place, and never interns one as a [Simplex.t]. *)
module Bits = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    n = Array.length b && go 0

  (* multiply, then fold the high bits down: the table indexes buckets by
     the low bits, and a bit set's low bits are only its first vertices *)
  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      let x = (!h lxor a.(i)) * 0x2545F4914F6CDD1D in
      h := x lxor (x lsr 29)
    done;
    !h land max_int
end)

let automorphisms ?(limit = 64) ?(fuel = 200_000) chroma =
  let c = Chromatic.complex chroma in
  let color = Chromatic.color chroma in
  let vs = Array.of_list (Complex.vertices c) in
  let nv = Array.length vs in
  let index = Hashtbl.create nv in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vs;
  let words = (nv + Sys.int_size - 1) / Sys.int_size in
  let bits_of s =
    let b = Array.make words 0 in
    Simplex.iter
      (fun v ->
        let i = Hashtbl.find index v in
        b.(i / Sys.int_size) <- b.(i / Sys.int_size) lor (1 lsl (i mod Sys.int_size)))
      s;
    b
  in
  let facets = Array.of_list (Complex.facets c) in
  let simplices = Complex.simplices c in
  (* the vertex invariants of Iso.signature minus the color (the [perm]
     constraint handles it): sorted dims of the facets at the vertex, and
     the number of closure simplices containing it *)
  let facet_dims = Array.make nv [] and membership = Array.make nv 0 in
  (* facets_at.(i): the facets containing vertex i. Assigning i only
     changes the images of those facets, so consistency is re-checked
     there alone — every other facet's image is exactly as it was when its
     own last vertex was assigned. *)
  let facets_at = Array.make nv [] in
  Array.iteri
    (fun fi f ->
      Simplex.iter
        (fun v ->
          let i = Hashtbl.find index v in
          facet_dims.(i) <- Simplex.dim f :: facet_dims.(i);
          facets_at.(i) <- fi :: facets_at.(i))
        f)
    facets;
  let closure = Bits.create (List.length simplices) in
  List.iter
    (fun s ->
      Simplex.iter
        (fun v ->
          let i = Hashtbl.find index v in
          membership.(i) <- membership.(i) + 1)
        s;
      Bits.replace closure (bits_of s) ())
    simplices;
  let facet_set = Bits.create (Array.length facets) in
  Array.iter (fun f -> Bits.replace facet_set (bits_of f) ()) facets;
  let sigs =
    Array.init nv (fun i -> (List.sort Stdlib.compare facet_dims.(i), membership.(i)))
  in
  let colors = Array.map color vs in
  let facets_at = Array.map Array.of_list facets_at in
  let indices = List.init nv Fun.id in
  fun ~perm ->
    let candidates i =
      let cv = perm colors.(i) in
      List.filter (fun j -> sigs.(j) = sigs.(i) && colors.(j) = cv) indices
    in
    let cand = List.map (fun i -> (i, candidates i)) indices in
    if List.exists (fun (_, cs) -> cs = []) cand then []
    else begin
      let order =
        List.stable_sort
          (fun (_, c1) (_, c2) -> compare (List.length c1) (List.length c2))
          cand
      in
      (* mapping.(i): the image index of vertex i, read only at a leaf *)
      let mapping = Array.make nv (-1) and used = Array.make nv false in
      (* image.(f): the bit set of the images of f's mapped vertices *)
      let image = Array.map (fun _ -> Array.make words 0) facets in
      (* the map is injective ([used]), so the images of the facets are
         pairwise distinct, and they are the facet set exactly when each one
         is a facet *)
      let to_map () =
        let m : vertex_map = Hashtbl.create nv in
        List.iter (fun (i, _) -> Hashtbl.replace m vs.(i) vs.(mapping.(i))) order;
        m
      in
      let found = ref [] and nfound = ref 0 in
      let fuel = ref fuel in
      let rec search = function
        | [] ->
          if Array.for_all (fun b -> Bits.mem facet_set b) image then begin
            found := to_map () :: !found;
            incr nfound
          end
        | (i, cs) :: rest ->
          List.iter
            (fun j ->
              if !nfound < limit && !fuel > 0 && not used.(j) then begin
                decr fuel;
                mapping.(i) <- j;
                used.(j) <- true;
                let w = j / Sys.int_size and bit = 1 lsl (j mod Sys.int_size) in
                let at = facets_at.(i) in
                Array.iter (fun f -> image.(f).(w) <- image.(f).(w) lor bit) at;
                if Array.for_all (fun f -> Bits.mem closure image.(f)) at then search rest;
                Array.iter (fun f -> image.(f).(w) <- image.(f).(w) land lnot bit) at;
                used.(j) <- false
              end)
            cs
      in
      search order;
      List.rev !found
    end

(* One level of the lift. At level 0 it restricts the base map to the
   complex's vertices; above, it maps (v, S) to (σ v, σ S) through the
   reverse index of the level's (own, snap) naming, built once here and
   shared by every map the returned function is applied to. *)
let lift_step sds =
  let cx = Chromatic.complex (Sds.complex sds) in
  let vertices = Complex.vertices cx in
  match Sds.prev sds with
  | None ->
    fun (base_map : vertex_map) ->
      let out : vertex_map = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun v ->
          match Hashtbl.find_opt base_map v with
          | Some w when Complex.mem_vertex w cx -> Hashtbl.replace out v w
          | _ -> ok := false)
        vertices;
      if !ok then Some out else None
  | Some _ ->
    let nverts = List.length vertices in
    let index = Hashtbl.create nverts in
    List.iter
      (fun v -> Hashtbl.replace index (Sds.own sds v, Simplex.id (Sds.snap sds v)) v)
      vertices;
    fun prev_map ->
      let map_prev u = Hashtbl.find_opt prev_map u in
      let out : vertex_map = Hashtbl.create nverts in
      let ok = ref true in
      List.iter
        (fun v ->
          if !ok then begin
            let own' = map_prev (Sds.own sds v) in
            let snap' =
              Simplex.fold
                (fun acc u ->
                  match (acc, map_prev u) with
                  | Some l, Some u' -> Some (u' :: l)
                  | _ -> None)
                (Some [])
                (Sds.snap sds v)
            in
            match (own', snap') with
            | Some o, Some members -> (
              match Hashtbl.find_opt index (o, Simplex.id (Simplex.of_list members)) with
              | Some v' -> Hashtbl.replace out v v'
              | None -> ok := false)
            | _ -> ok := false
          end)
        vertices;
      if !ok then Some out else None

let lift sds base_map =
  let rec chain sds acc =
    match Sds.prev sds with None -> sds :: acc | Some p -> chain p (sds :: acc)
  in
  List.fold_left
    (fun m level -> match m with None -> None | Some m -> lift_step level m)
    (Some base_map) (chain sds [])
