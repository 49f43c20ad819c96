(* Randomized property tests for the interned simplex representation.

   Every operation is checked against a reference model that represents a
   vertex set as a sorted, deduplicated [int list] — the historical
   representation. A second group checks the interning invariants
   themselves: equality coincides with physical equality and with id
   equality, so the arena really does keep one live representative per
   vertex set. A third group interns from several sys-threads at once. *)

open Wfc_topology

let qtest ?(count = 1000) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Reference model: sorted deduplicated int lists                      *)
(* ------------------------------------------------------------------ *)

module Model = struct
  let of_list l = List.sort_uniq Stdlib.compare l

  let union a b = of_list (a @ b)

  let inter a b = List.filter (fun x -> List.mem x b) a

  let diff a b = List.filter (fun x -> not (List.mem x b)) a

  let subset a b = List.for_all (fun x -> List.mem x b) a

  let add v l = of_list (v :: l)

  let remove v l = List.filter (fun x -> x <> v) l

  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun t -> x :: t) s

  let faces l = List.filter (fun t -> t <> []) (subsets l)

  let facets l = if l = [] then [] else List.map (fun v -> remove v l) l
end

(* Vertex lists kept small enough that face enumeration (2^card) stays
   cheap, with a range narrow enough to make collisions (shared vertices,
   equal sets from different inputs) common. *)
let gen_verts = QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 12))

let gen_pair = QCheck2.Gen.pair gen_verts gen_verts

let sorted_faces ls = List.sort Stdlib.compare ls

let model_tests =
  [
    qtest "of_list sorts and dedups" gen_verts (fun l ->
        Simplex.to_list (Simplex.of_list l) = Model.of_list l);
    qtest "card/dim/min/max match model" gen_verts (fun l ->
        let s = Simplex.of_list l and m = Model.of_list l in
        Simplex.card s = List.length m
        && Simplex.dim s = List.length m - 1
        && (m = [] || Simplex.min_vertex s = List.hd m)
        && (m = [] || Simplex.max_vertex s = List.nth m (List.length m - 1)));
    qtest "mem matches model" gen_verts (fun l ->
        let s = Simplex.of_list l and m = Model.of_list l in
        List.for_all (fun v -> Simplex.mem v s = List.mem v m) (List.init 14 Fun.id));
    qtest "union matches model" gen_pair (fun (a, b) ->
        Simplex.to_list (Simplex.union (Simplex.of_list a) (Simplex.of_list b))
        = Model.union a b);
    qtest "inter matches model" gen_pair (fun (a, b) ->
        Simplex.to_list (Simplex.inter (Simplex.of_list a) (Simplex.of_list b))
        = Model.inter (Model.of_list a) (Model.of_list b));
    qtest "diff matches model" gen_pair (fun (a, b) ->
        Simplex.to_list (Simplex.diff (Simplex.of_list a) (Simplex.of_list b))
        = Model.diff (Model.of_list a) (Model.of_list b));
    qtest "subset matches model" gen_pair (fun (a, b) ->
        Simplex.subset (Simplex.of_list a) (Simplex.of_list b)
        = Model.subset (Model.of_list a) (Model.of_list b));
    qtest "add/remove match model"
      QCheck2.Gen.(pair gen_verts (int_range 0 13))
      (fun (l, v) ->
        let s = Simplex.of_list l in
        Simplex.to_list (Simplex.add v s) = Model.add v (Model.of_list l)
        && Simplex.to_list (Simplex.remove v s) = Model.remove v (Model.of_list l));
    qtest "compare is the sorted-list order" gen_pair (fun (a, b) ->
        let c = Simplex.compare (Simplex.of_list a) (Simplex.of_list b) in
        let m = Stdlib.compare (Model.of_list a) (Model.of_list b) in
        (c < 0) = (m < 0) && (c > 0) = (m > 0));
    qtest "faces match model" gen_verts (fun l ->
        let s = Simplex.of_list l in
        sorted_faces (List.map Simplex.to_list (Simplex.faces s))
        = sorted_faces (Model.faces (Model.of_list l)));
    qtest "proper_faces = faces minus self" gen_verts (fun l ->
        let s = Simplex.of_list l in
        sorted_faces (List.map Simplex.to_list (Simplex.proper_faces s))
        = sorted_faces
            (List.filter (fun f -> f <> Model.of_list l) (Model.faces (Model.of_list l))));
    qtest "facets match model" gen_verts (fun l ->
        let s = Simplex.of_list l in
        sorted_faces (List.map Simplex.to_list (Simplex.facets s))
        = sorted_faces (Model.facets (Model.of_list l)));
    qtest "iter/fold visit vertices in order" gen_verts (fun l ->
        let s = Simplex.of_list l in
        let seen = ref [] in
        Simplex.iter (fun v -> seen := v :: !seen) s;
        List.rev !seen = Model.of_list l
        && Simplex.fold (fun acc v -> v :: acc) [] s = List.rev (Model.of_list l));
  ]

(* ------------------------------------------------------------------ *)
(* Interning invariants                                                *)
(* ------------------------------------------------------------------ *)

let interning_tests =
  [
    qtest "equal ⟺ physical equality" gen_pair (fun (a, b) ->
        let s = Simplex.of_list a and t = Simplex.of_list b in
        Simplex.equal s t = (s == t)
        && (Model.of_list a = Model.of_list b) = (s == t));
    qtest "equal ⟺ id equality" gen_pair (fun (a, b) ->
        let s = Simplex.of_list a and t = Simplex.of_list b in
        Simplex.equal s t = (Simplex.id s = Simplex.id t));
    qtest "set operations return interned representatives" gen_pair (fun (a, b) ->
        let s = Simplex.of_list a and t = Simplex.of_list b in
        let u = Simplex.union s t in
        u == Simplex.of_list (Model.union a b)
        && Simplex.inter s t == Simplex.of_list (Model.inter (Model.of_list a) (Model.of_list b))
        && Simplex.diff s t == Simplex.of_list (Model.diff (Model.of_list a) (Model.of_list b)));
    qtest "hash agrees with equality" gen_pair (fun (a, b) ->
        let s = Simplex.of_list a and t = Simplex.of_list b in
        (not (Simplex.equal s t)) || Simplex.hash s = Simplex.hash t);
    qtest "Tbl keys by identity" gen_pair (fun (a, b) ->
        let s = Simplex.of_list a and t = Simplex.of_list b in
        let tbl = Simplex.Tbl.create 4 in
        Simplex.Tbl.replace tbl s 1;
        Simplex.Tbl.replace tbl t 2;
        Simplex.Tbl.length tbl = (if Simplex.equal s t then 1 else 2)
        && Simplex.Tbl.find tbl t = 2);
  ]

(* ------------------------------------------------------------------ *)
(* The arena under concurrent sys-threads                               *)
(* ------------------------------------------------------------------ *)

(* Four threads plus the main thread intern the same fresh vertex sets:
   each set must get one id whatever the interleaving, the arena must grow
   by exactly the distinct sets, and the fresh ids must form one block.
   Vertices start high so nothing is interned already. *)
let test_arena_threads () =
  let checki = Alcotest.(check int) and checkb = Alcotest.(check bool) in
  let base = 200_000 in
  let sets =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> [ [ base + a ]; [ base + a; base + 50 + b ]; [ base + a; base + 50 + b; base + 100 ] ])
          [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let distinct = List.sort_uniq compare sets in
  let before = Simplex.arena_size () in
  let work () = List.map (fun vs -> (vs, Simplex.id (Simplex.of_list vs))) sets in
  let results = Array.make 4 [] in
  let threads = Array.init 4 (fun i -> Thread.create (fun () -> results.(i) <- work ()) ()) in
  let mine = work () in
  Array.iter Thread.join threads;
  Array.iter (fun theirs -> checkb "one id per set on every thread" true (theirs = mine)) results;
  checki "arena grew by the distinct sets exactly" (List.length distinct)
    (Simplex.arena_size () - before);
  checkb "re-intern is a lookup" true (work () = mine);
  checki "no further growth" (List.length distinct) (Simplex.arena_size () - before);
  let ids = List.sort_uniq compare (List.map (fun (_, id) -> id) mine) in
  checki "no duplicate ids across keys" (List.length distinct) (List.length ids);
  checki "ids form the contiguous block the arena grew by" before (List.hd ids);
  checki "block ends at the arena size" (Simplex.arena_size () - 1)
    (List.nth ids (List.length ids - 1));
  (* the faces cache returns the list it filed, and caching it leaves
     polymorphic equality on simplices usable *)
  let s = Simplex.of_list [ base; base + 50; base + 100 ] in
  let fs = Simplex.faces s in
  checkb "faces is cached" true (Simplex.faces s == fs);
  checki "faces of a triangle" 7 (List.length fs);
  checkb "structural equality after faces" true (s = Simplex.of_list [ base + 100; base; base + 50 ])

let () =
  Alcotest.run "wfc_simplex_props"
    [
      ("model agreement", model_tests);
      ("interning", interning_tests);
      ("arena", [ Alcotest.test_case "sys-thread intern stress" `Quick test_arena_threads ]);
    ]
