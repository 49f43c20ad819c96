(* Tests for the combinatorial/geometric topology substrate. *)

open Wfc_topology

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rat                                                                  *)
(* ------------------------------------------------------------------ *)

let rat_gen =
  QCheck2.Gen.(
    map2
      (fun n d -> Rat.make n d)
      (int_range (-10_000) 10_000)
      (map (fun d -> if d = 0 then 1 else d) (int_range (-500) 500)))

let rat_testable = Alcotest.testable Rat.pp Rat.equal

let rat_unit_tests =
  [
    Alcotest.test_case "normalization" `Quick (fun () ->
        check rat_testable "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
        check rat_testable "-6/-4 = 3/2" (Rat.make 3 2) (Rat.make (-6) (-4));
        check rat_testable "0/5 = 0" Rat.zero (Rat.make 0 5);
        checki "den of -1/-2" 2 (Rat.den (Rat.make 1 (-2)) * -1 |> abs);
        check rat_testable "1/-2 = -1/2" (Rat.make (-1) 2) (Rat.make 1 (-2)));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        check rat_testable "1/2 + 1/3" (Rat.make 5 6) (Rat.add Rat.half (Rat.make 1 3));
        check rat_testable "1/2 * 2/3" (Rat.make 1 3) (Rat.mul Rat.half (Rat.make 2 3));
        check rat_testable "(1/2) / (3/4)" (Rat.make 2 3) (Rat.div Rat.half (Rat.make 3 4));
        check rat_testable "1 - 1/3" (Rat.make 2 3) (Rat.sub Rat.one (Rat.make 1 3)));
    Alcotest.test_case "division by zero" `Quick (fun () ->
        Alcotest.check_raises "make x 0" Rat.Division_by_zero (fun () ->
            ignore (Rat.make 1 0));
        Alcotest.check_raises "inv 0" Rat.Division_by_zero (fun () -> ignore (Rat.inv Rat.zero));
        Alcotest.check_raises "div by 0" Rat.Division_by_zero (fun () ->
            ignore (Rat.div Rat.one Rat.zero)));
    Alcotest.test_case "compare and ordering" `Quick (fun () ->
        checkb "1/3 < 1/2" true Rat.(make 1 3 < half);
        checkb "-1/2 < 1/3" true Rat.(make (-1) 2 < make 1 3);
        check rat_testable "min" (Rat.make 1 3) (Rat.min (Rat.make 1 3) Rat.half);
        check rat_testable "max" Rat.half (Rat.max (Rat.make 1 3) Rat.half));
    Alcotest.test_case "to_string / to_float" `Quick (fun () ->
        Alcotest.check Alcotest.string "3/2" "3/2" (Rat.to_string (Rat.make 3 2));
        Alcotest.check Alcotest.string "int prints bare" "7" (Rat.to_string (Rat.of_int 7));
        Alcotest.check (Alcotest.float 1e-12) "0.5" 0.5 (Rat.to_float Rat.half));
    Alcotest.test_case "sum and scale" `Quick (fun () ->
        check rat_testable "sum thirds" Rat.one
          (Rat.sum [ Rat.make 1 3; Rat.make 1 3; Rat.make 1 3 ]);
        check rat_testable "scale" (Rat.make 3 2) (Rat.scale 3 Rat.half));
    Alcotest.test_case "overflow detection" `Quick (fun () ->
        let big = Rat.make max_int 1 in
        Alcotest.check_raises "add overflow" Rat.Overflow (fun () -> ignore (Rat.add big big)));
  ]

let rat_prop_tests =
  [
    qtest "add commutative" QCheck2.Gen.(pair rat_gen rat_gen) (fun (a, b) ->
        Rat.equal (Rat.add a b) (Rat.add b a));
    qtest "mul commutative" QCheck2.Gen.(pair rat_gen rat_gen) (fun (a, b) ->
        Rat.equal (Rat.mul a b) (Rat.mul b a));
    qtest "add associative" QCheck2.Gen.(triple rat_gen rat_gen rat_gen) (fun (a, b, c) ->
        Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c));
    qtest "distributivity" QCheck2.Gen.(triple rat_gen rat_gen rat_gen) (fun (a, b, c) ->
        Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    qtest "sub then add round-trips" QCheck2.Gen.(pair rat_gen rat_gen) (fun (a, b) ->
        Rat.equal a (Rat.add (Rat.sub a b) b));
    qtest "normalized: gcd(num,den)=1, den>0" rat_gen (fun q ->
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        Rat.den q > 0 && (Rat.num q = 0 || gcd (abs (Rat.num q)) (Rat.den q) = 1));
    qtest "inv . inv = id (nonzero)" rat_gen (fun q ->
        Rat.is_zero q || Rat.equal q (Rat.inv (Rat.inv q)));
    qtest "compare consistent with sub sign" QCheck2.Gen.(pair rat_gen rat_gen) (fun (a, b) ->
        compare (Rat.compare a b) 0 = compare (Rat.sign (Rat.sub a b)) 0);
  ]

(* ------------------------------------------------------------------ *)
(* Point                                                                *)
(* ------------------------------------------------------------------ *)

let point_unit_tests =
  [
    Alcotest.test_case "unit points and barycenter" `Quick (fun () ->
        let p = Point.barycenter [ Point.unit 3 0; Point.unit 3 1; Point.unit 3 2 ] in
        checkb "barycenter is barycentric" true (Point.is_barycentric p);
        check rat_testable "coord" (Rat.make 1 3) (Point.coord p 0));
    Alcotest.test_case "midpoint" `Quick (fun () ->
        let m = Point.midpoint (Point.unit 2 0) (Point.unit 2 1) in
        check rat_testable "x" Rat.half (Point.coord m 0);
        check rat_testable "y" Rat.half (Point.coord m 1));
    Alcotest.test_case "determinant" `Quick (fun () ->
        let m = [| [| Rat.of_int 2; Rat.zero |]; [| Rat.zero; Rat.of_int 3 |] |] in
        check rat_testable "diag det" (Rat.of_int 6) (Point.det m);
        let singular = [| [| Rat.one; Rat.one |]; [| Rat.one; Rat.one |] |] in
        check rat_testable "singular" Rat.zero (Point.det singular));
    Alcotest.test_case "volume" `Quick (fun () ->
        (* unit right triangle in the plane: scaled volume 1 *)
        let p0 = Point.of_ints [ 0; 0 ]
        and p1 = Point.of_ints [ 1; 0 ]
        and p2 = Point.of_ints [ 0; 1 ] in
        check rat_testable "scaled area" Rat.one (Point.simplex_volume_scaled [ p0; p1; p2 ]);
        checkb "affinely independent" true (Point.affinely_independent [ p0; p1; p2 ]);
        checkb "dependent" false
          (Point.affinely_independent [ p0; p1; Point.of_ints [ 2; 0 ] ]));
    Alcotest.test_case "solve_barycentric" `Quick (fun () ->
        let corners = [ Point.unit 3 0; Point.unit 3 1; Point.unit 3 2 ] in
        let q =
          Point.combine
            [ (Rat.make 1 6, List.nth corners 0);
              (Rat.make 2 6, List.nth corners 1);
              (Rat.make 3 6, List.nth corners 2) ]
        in
        (match Point.solve_barycentric corners q with
        | Some [ a; b; c ] ->
          check rat_testable "l0" (Rat.make 1 6) a;
          check rat_testable "l1" (Rat.make 2 6) b;
          check rat_testable "l2" (Rat.make 3 6) c
        | _ -> Alcotest.fail "expected coefficients");
        checkb "interior in simplex" true (Point.in_simplex corners q);
        checkb "interior in open simplex" true (Point.in_open_simplex corners q);
        checkb "vertex not in open simplex" false
          (Point.in_open_simplex corners (List.hd corners));
        checkb "vertex in closed simplex" true (Point.in_simplex corners (List.hd corners)));
    Alcotest.test_case "outside affine hull" `Quick (fun () ->
        let seg = [ Point.unit 3 0; Point.unit 3 1 ] in
        checkb "third corner outside segment" false (Point.in_simplex seg (Point.unit 3 2)));
  ]

let weights_gen k =
  QCheck2.Gen.(list_size (return k) (int_range 1 100))

let point_prop_tests =
  [
    qtest "random convex combos are barycentric and located" (weights_gen 3) (fun ws ->
        let total = List.fold_left ( + ) 0 ws in
        let corners = [ Point.unit 3 0; Point.unit 3 1; Point.unit 3 2 ] in
        let q =
          Point.combine (List.map2 (fun w c -> (Rat.make w total, c)) ws corners)
        in
        Point.is_barycentric q && Point.in_open_simplex corners q);
    qtest "solve_barycentric reconstructs the point" (weights_gen 4) (fun ws ->
        let total = List.fold_left ( + ) 0 ws in
        let corners = List.init 4 (Point.unit 4) in
        let q = Point.combine (List.map2 (fun w c -> (Rat.make w total, c)) ws corners) in
        match Point.solve_barycentric corners q with
        | None -> false
        | Some ls -> Point.equal q (Point.combine (List.combine ls corners)));
  ]

(* ------------------------------------------------------------------ *)
(* Simplex                                                              *)
(* ------------------------------------------------------------------ *)

let simplex_gen = QCheck2.Gen.(map Simplex.of_list (list_size (int_range 0 8) (int_range 0 15)))

let simplex_unit_tests =
  [
    Alcotest.test_case "canonical form" `Quick (fun () ->
        checkb "dedup + sort" true
          (Simplex.equal (Simplex.of_list [ 3; 1; 3; 2 ]) (Simplex.of_list [ 1; 2; 3 ]));
        checki "dim" 2 (Simplex.dim (Simplex.of_list [ 5; 1; 9 ]));
        checki "empty dim" (-1) (Simplex.dim Simplex.empty));
    Alcotest.test_case "faces" `Quick (fun () ->
        let s = Simplex.of_list [ 0; 1; 2 ] in
        checki "7 nonempty faces" 7 (List.length (Simplex.faces s));
        checki "6 proper" 6 (List.length (Simplex.proper_faces s));
        checki "3 facets" 3 (List.length (Simplex.facets s));
        checki "choose 2 of 3" 3 (List.length (Simplex.subsets_of_card 2 s)));
    Alcotest.test_case "set operations" `Quick (fun () ->
        let a = Simplex.of_list [ 1; 2; 3 ] and b = Simplex.of_list [ 2; 3; 4 ] in
        checkb "union" true (Simplex.equal (Simplex.union a b) (Simplex.of_list [ 1; 2; 3; 4 ]));
        checkb "inter" true (Simplex.equal (Simplex.inter a b) (Simplex.of_list [ 2; 3 ]));
        checkb "diff" true (Simplex.equal (Simplex.diff a b) (Simplex.of_list [ 1 ]));
        checkb "subset" true (Simplex.subset (Simplex.of_list [ 2; 3 ]) a);
        checkb "not subset" false (Simplex.subset b a));
  ]

let simplex_prop_tests =
  [
    qtest "union is lub" QCheck2.Gen.(pair simplex_gen simplex_gen) (fun (a, b) ->
        let u = Simplex.union a b in
        Simplex.subset a u && Simplex.subset b u
        && Simplex.card u <= Simplex.card a + Simplex.card b);
    qtest "inter is glb" QCheck2.Gen.(pair simplex_gen simplex_gen) (fun (a, b) ->
        let i = Simplex.inter a b in
        Simplex.subset i a && Simplex.subset i b);
    qtest "diff disjoint from subtrahend" QCheck2.Gen.(pair simplex_gen simplex_gen)
      (fun (a, b) -> Simplex.is_empty (Simplex.inter (Simplex.diff a b) b));
    qtest "faces count = 2^card - 1" simplex_gen (fun s ->
        Simplex.card s > 12
        || List.length (Simplex.faces s) = (1 lsl Simplex.card s) - 1);
    qtest "every face is a subset" simplex_gen (fun s ->
        List.for_all (fun f -> Simplex.subset f s) (Simplex.faces s));
  ]

(* ------------------------------------------------------------------ *)
(* Complex                                                              *)
(* ------------------------------------------------------------------ *)

let triangle_plus_tail () = Complex.of_facets [ [ 0; 1; 2 ]; [ 2; 3 ] ]

let complex_unit_tests =
  [
    Alcotest.test_case "construction drops non-maximal" `Quick (fun () ->
        let c = Complex.of_facets [ [ 0; 1 ]; [ 0; 1; 2 ]; [ 1; 2 ] ] in
        checki "one facet" 1 (Complex.num_facets c);
        checki "dim" 2 (Complex.dim c));
    Alcotest.test_case "rejects bad input" `Quick (fun () ->
        Alcotest.check_raises "empty complex" (Invalid_argument "Complex.of_simplices: empty complex")
          (fun () -> ignore (Complex.of_facets []));
        Alcotest.check_raises "negative vertex"
          (Invalid_argument "Complex.of_simplices: negative vertex") (fun () ->
            ignore (Complex.of_facets [ [ -1; 2 ] ])));
    Alcotest.test_case "faces and f-vector" `Quick (fun () ->
        let c = triangle_plus_tail () in
        checki "vertices" 4 (Complex.num_vertices c);
        checki "edges" 4 (List.length (Complex.faces c ~dim:1));
        checki "triangles" 1 (List.length (Complex.faces c ~dim:2));
        check (Alcotest.array Alcotest.int) "f-vector" [| 4; 4; 1 |] (Complex.f_vector c);
        checki "euler = 4-4+1" 1 (Complex.euler_characteristic c);
        checki "num simplices" 9 (Complex.num_simplices c));
    Alcotest.test_case "membership" `Quick (fun () ->
        let c = triangle_plus_tail () in
        checkb "edge" true (Complex.mem (Simplex.of_list [ 0; 2 ]) c);
        checkb "non-edge" false (Complex.mem (Simplex.of_list [ 0; 3 ]) c);
        checkb "vertex" true (Complex.mem_vertex 3 c);
        checkb "is_facet" true (Complex.is_facet (Simplex.of_list [ 2; 3 ]) c);
        checkb "face not facet" false (Complex.is_facet (Simplex.of_list [ 0; 1 ]) c));
    Alcotest.test_case "purity" `Quick (fun () ->
        checkb "mixed dims not pure" false (Complex.is_pure (triangle_plus_tail ()));
        checkb "simplex pure" true (Complex.is_pure (Complex.full_simplex 3)));
    Alcotest.test_case "skeleton" `Quick (fun () ->
        let sk = Complex.skeleton 1 (Complex.full_simplex 3) in
        checki "dim" 1 (Complex.dim sk);
        checki "6 edges" 6 (Complex.num_facets sk));
    Alcotest.test_case "star and link" `Quick (fun () ->
        let c = triangle_plus_tail () in
        let star2 = Complex.star (Simplex.singleton 2) c in
        checki "star of 2 has both facets" 2 (Complex.num_facets star2);
        (match Complex.link (Simplex.singleton 2) c with
        | Some l ->
          checkb "0-1 edge in link" true (Complex.mem (Simplex.of_list [ 0; 1 ]) l);
          checkb "3 in link" true (Complex.mem_vertex 3 l)
        | None -> Alcotest.fail "link of 2 must exist");
        (match Complex.link (Simplex.of_list [ 2; 3 ]) c with
        | None -> ()
        | Some _ -> Alcotest.fail "link of a facet is empty"));
    Alcotest.test_case "boundary" `Quick (fun () ->
        (match Complex.boundary (Complex.full_simplex 2) with
        | Some b -> checki "triangle boundary = 3 edges" 3 (Complex.num_facets b)
        | None -> Alcotest.fail "expected boundary");
        (* boundary of the boundary sphere is empty *)
        match Complex.boundary (Option.get (Complex.boundary (Complex.full_simplex 3))) with
        | None -> ()
        | Some _ -> Alcotest.fail "sphere has no boundary");
    Alcotest.test_case "connectivity" `Quick (fun () ->
        checkb "connected" true (Complex.is_connected (triangle_plus_tail ()));
        let two = Complex.of_facets [ [ 0; 1 ]; [ 2; 3 ] ] in
        checkb "disconnected" false (Complex.is_connected two);
        checki "components" 2 (List.length (Complex.connected_components two)));
    Alcotest.test_case "pseudomanifold" `Quick (fun () ->
        checkb "sphere is pseudomanifold" true
          (Complex.is_pseudomanifold (Option.get (Complex.boundary (Complex.full_simplex 3))));
        let three_triangles_share_edge =
          Complex.of_facets [ [ 0; 1; 2 ]; [ 0; 1; 3 ]; [ 0; 1; 4 ] ]
        in
        checkb "book of 3 pages is not" false
          (Complex.is_pseudomanifold three_triangles_share_edge));
    Alcotest.test_case "relabel" `Quick (fun () ->
        let c = Complex.relabel (fun v -> v + 10) (triangle_plus_tail ()) in
        checkb "facet moved" true (Complex.mem (Simplex.of_list [ 10; 11; 12 ]) c);
        Alcotest.check_raises "non-injective"
          (Invalid_argument "Complex.relabel: renaming is not injective on a simplex") (fun () ->
            ignore (Complex.relabel (fun _ -> 0) (triangle_plus_tail ()))));
    Alcotest.test_case "induced" `Quick (fun () ->
        match Complex.induced (triangle_plus_tail ()) [ 0; 1; 3 ] with
        | Some c ->
          checkb "edge 0-1 kept" true (Complex.mem (Simplex.of_list [ 0; 1 ]) c);
          checkb "3 isolated" true (Complex.mem_vertex 3 c);
          checkb "no 0-3 edge" false (Complex.mem (Simplex.of_list [ 0; 3 ]) c)
        | None -> Alcotest.fail "induced should be non-empty");
    Alcotest.test_case "unions" `Quick (fun () ->
        let a = Complex.of_facets [ [ 0; 1 ] ] and b = Complex.of_facets [ [ 2; 3 ] ] in
        checki "disjoint union facets" 2 (Complex.num_facets (Complex.disjoint_union a b));
        Alcotest.check_raises "overlap rejected"
          (Invalid_argument "Complex.disjoint_union: vertex sets overlap") (fun () ->
            ignore (Complex.disjoint_union a a));
        checkb "subcomplex" true (Complex.subcomplex a (Complex.union a b)));
  ]

let small_complex_gen =
  (* random complexes over <= 7 vertices with <= 5 candidate facets *)
  QCheck2.Gen.(
    map
      (fun facets ->
        let facets = List.filter (fun f -> f <> []) facets in
        if facets = [] then Complex.full_simplex 0
        else Complex.of_facets facets)
      (list_size (int_range 1 5) (list_size (int_range 1 4) (int_range 0 6))))

let complex_prop_tests =
  [
    qtest "facets are maximal" small_complex_gen (fun c ->
        let fs = Complex.facets c in
        List.for_all
          (fun f ->
            not
              (List.exists
                 (fun g -> (not (Simplex.equal f g)) && Simplex.subset f g)
                 fs))
          fs);
    qtest "closure is face-closed" small_complex_gen (fun c ->
        List.for_all
          (fun s -> List.for_all (fun f -> Complex.mem f c) (Simplex.faces s))
          (Complex.simplices c));
    qtest "euler = alternating f-vector" small_complex_gen (fun c ->
        let f = Complex.f_vector c in
        let alt = ref 0 in
        Array.iteri (fun k x -> alt := !alt + if k mod 2 = 0 then x else -x) f;
        !alt = Complex.euler_characteristic c);
    qtest "star contains link join base" small_complex_gen (fun c ->
        List.for_all
          (fun v ->
            let s = Simplex.singleton v in
            let star = Complex.star s c in
            Complex.subcomplex star c
            &&
            match Complex.link s c with
            | None -> true
            | Some l ->
              List.for_all
                (fun f -> Complex.mem (Simplex.union f s) star)
                (Complex.facets l))
          (Complex.vertices c));
    qtest "components partition vertices" small_complex_gen (fun c ->
        let comps = Complex.connected_components c in
        List.sort compare (List.concat comps) = Complex.vertices c);
  ]

(* ------------------------------------------------------------------ *)
(* Chromatic                                                            *)
(* ------------------------------------------------------------------ *)

let chromatic_unit_tests =
  [
    Alcotest.test_case "standard simplex" `Quick (fun () ->
        let s = Chromatic.standard_simplex 2 in
        checki "colors" 3 (Chromatic.num_colors s);
        checki "color of 1" 1 (Chromatic.color s 1));
    Alcotest.test_case "rejects improper coloring" `Quick (fun () ->
        Alcotest.check_raises "repeated color"
          (Invalid_argument "Chromatic.make: coloring is not proper (simplex with repeated color)")
          (fun () -> ignore (Chromatic.make (Complex.full_simplex 1) ~color:(fun _ -> 0))));
    Alcotest.test_case "simplex colors and lookup" `Quick (fun () ->
        let s = Chromatic.standard_simplex 3 in
        let sx = Simplex.of_list [ 1; 3 ] in
        checkb "colors of simplex" true
          (Simplex.equal (Chromatic.simplex_colors s sx) (Simplex.of_list [ 1; 3 ]));
        Alcotest.check (Alcotest.option Alcotest.int) "vertex with color" (Some 3)
          (Chromatic.vertex_with_color s sx 3);
        Alcotest.check (Alcotest.option Alcotest.int) "absent color" None
          (Chromatic.vertex_with_color s sx 0));
    Alcotest.test_case "restrict_colors" `Quick (fun () ->
        let s = Chromatic.standard_simplex 2 in
        match Chromatic.restrict_colors s [ 0; 2 ] with
        | Some r ->
          checki "dim drops" 1 (Complex.dim (Chromatic.complex r));
          checkb "edge 0-2" true (Complex.mem (Simplex.of_list [ 0; 2 ]) (Chromatic.complex r))
        | None -> Alcotest.fail "restriction should be non-empty");
    Alcotest.test_case "rename_colors" `Quick (fun () ->
        let s = Chromatic.standard_simplex 1 in
        let r = Chromatic.rename_colors (fun c -> c + 5) s in
        checki "renamed" 5 (Chromatic.color r 0);
        Alcotest.check_raises "non-injective"
          (Invalid_argument "Chromatic.rename_colors: renaming not injective on used colors")
          (fun () -> ignore (Chromatic.rename_colors (fun _ -> 9) s)));
  ]

(* ------------------------------------------------------------------ *)
(* Ordered partitions                                                   *)
(* ------------------------------------------------------------------ *)

let op_unit_tests =
  [
    Alcotest.test_case "fubini numbers" `Quick (fun () ->
        List.iter2
          (fun n expect -> checki (Printf.sprintf "a(%d)" n) expect (Ordered_partition.count n))
          [ 0; 1; 2; 3; 4; 5 ] [ 1; 1; 3; 13; 75; 541 ]);
    Alcotest.test_case "enumerate matches count" `Quick (fun () ->
        List.iter
          (fun n ->
            let set = List.init n (fun i -> i) in
            checki
              (Printf.sprintf "enumerate %d" n)
              (Ordered_partition.count n)
              (List.length (Ordered_partition.enumerate set)))
          [ 0; 1; 2; 3; 4 ]);
    Alcotest.test_case "views are immediate-snapshot views" `Quick (fun () ->
        let p = [ [ 1 ]; [ 0; 2 ] ] in
        checkb "valid" true (Ordered_partition.check p);
        Alcotest.check
          (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.int)))
          "views"
          [ (0, [ 0; 1; 2 ]); (1, [ 1 ]); (2, [ 0; 1; 2 ]) ]
          (Ordered_partition.views p));
    Alcotest.test_case "invalid partitions rejected" `Quick (fun () ->
        checkb "dup element" false (Ordered_partition.check [ [ 0 ]; [ 0 ] ]);
        checkb "empty block" false (Ordered_partition.check [ []; [ 1 ] ];);
        checkb "unsorted block" false (Ordered_partition.check [ [ 2; 1 ] ]));
    Alcotest.test_case "of_linear" `Quick (fun () ->
        checkb "singleton blocks" true
          (Ordered_partition.check (Ordered_partition.of_linear [ 2; 0; 1 ]));
        checki "blocks" 3 (Ordered_partition.num_blocks (Ordered_partition.of_linear [ 2; 0; 1 ])));
  ]

let op_prop_tests =
  [
    qtest ~count:100 "enumerate yields valid distinct partitions"
      QCheck2.Gen.(int_range 0 4)
      (fun n ->
        let set = List.init n (fun i -> i * 2) in
        let ps = Ordered_partition.enumerate set in
        List.for_all Ordered_partition.check ps
        && List.length (List.sort_uniq compare ps) = List.length ps
        && List.for_all (fun p -> Ordered_partition.elements p = set) ps);
    qtest ~count:100 "random partitions are valid"
      QCheck2.Gen.(pair int (int_range 0 8))
      (fun (seed, n) ->
        let st = Random.State.make [| seed |] in
        let set = List.init n (fun i -> i) in
        let p = Ordered_partition.random st set in
        Ordered_partition.check p && Ordered_partition.elements p = set);
    qtest ~count:100 "views satisfy containment in block order"
      QCheck2.Gen.(pair int (int_range 1 6))
      (fun (seed, n) ->
        let st = Random.State.make [| seed |] in
        let p = Ordered_partition.random st (List.init n (fun i -> i)) in
        let views = Ordered_partition.views p in
        List.for_all
          (fun (_, s1) ->
            List.for_all
              (fun (_, s2) ->
                let sub a b = List.for_all (fun x -> List.mem x b) a in
                sub s1 s2 || sub s2 s1)
              views)
          views);
  ]

(* ------------------------------------------------------------------ *)
(* Subdivisions: SDS and Bsd                                            *)
(* ------------------------------------------------------------------ *)

let sds_unit_tests =
  [
    Alcotest.test_case "facet counts are Fubini powers" `Quick (fun () ->
        List.iter
          (fun (n, b, expect) ->
            let s = Sds.standard ~dim:n ~levels:b in
            checki
              (Printf.sprintf "SDS^%d(s^%d)" b n)
              expect
              (Complex.num_facets (Chromatic.complex (Sds.complex s)));
            checki "count_facets agrees" expect (Sds.count_facets ~dim:n ~levels:b))
          [ (1, 1, 3); (1, 2, 9); (2, 1, 13); (2, 2, 169); (3, 1, 75) ]);
    Alcotest.test_case "chromatic and pure" `Quick (fun () ->
        let s = Sds.standard ~dim:2 ~levels:1 in
        let cx = Chromatic.complex (Sds.complex s) in
        checkb "pure" true (Complex.is_pure cx);
        checkb "pseudomanifold" true (Complex.is_pseudomanifold cx);
        checki "twelve vertices" 12 (Complex.num_vertices cx));
    Alcotest.test_case "carrier of corner vs center" `Quick (fun () ->
        let s = Sds.standard ~dim:2 ~levels:1 in
        let cx = Chromatic.complex (Sds.complex s) in
        let corners =
          List.filter (fun v -> Simplex.card (Sds.carrier s v) = 1) (Complex.vertices cx)
        in
        let centers =
          List.filter (fun v -> Simplex.card (Sds.carrier s v) = 3) (Complex.vertices cx)
        in
        checki "3 corners" 3 (List.length corners);
        (* central vertices are (i, {0,1,2}) for each color i *)
        checki "3 center vertices" 3 (List.length centers));
    Alcotest.test_case "geometric realization is exact" `Quick (fun () ->
        List.iter
          (fun (n, b) ->
            match Subdiv.check_geometric (Sds.subdiv (Sds.standard ~dim:n ~levels:b)) with
            | Ok () -> ()
            | Error e -> Alcotest.fail (Printf.sprintf "SDS^%d(s^%d): %s" b n e))
          [ (1, 1); (1, 3); (2, 1); (2, 2); (3, 1) ]);
    Alcotest.test_case "sample points covered exactly once" `Quick (fun () ->
        let s = Sds.standard ~dim:2 ~levels:2 in
        let sd = Sds.subdiv s in
        let st = Random.State.make [| 42 |] in
        let sigma = Simplex.of_list [ 0; 1; 2 ] in
        for _ = 1 to 25 do
          checki "cover count" 1 (Subdiv.sample_cover_count sd st sigma)
        done);
    Alcotest.test_case "facet_partition round-trips" `Quick (fun () ->
        let s = Sds.standard ~dim:2 ~levels:1 in
        let cx = Chromatic.complex (Sds.complex s) in
        List.iter
          (fun f ->
            let p = Sds.facet_partition s f in
            checkb "valid partition" true (Ordered_partition.check p);
            checki "elements = 3" 3 (List.length (Ordered_partition.elements p)))
          (Complex.facets cx));
    Alcotest.test_case "canonical views distinct" `Quick (fun () ->
        let s = Sds.standard ~dim:2 ~levels:2 in
        let cx = Chromatic.complex (Sds.complex s) in
        let views = List.map (Sds.canonical_view s) (Complex.vertices cx) in
        checki "all distinct" (List.length views)
          (List.length (List.sort_uniq compare views)));
    Alcotest.test_case "faces restrict correctly" `Quick (fun () ->
        let s = Sds.standard ~dim:2 ~levels:1 in
        match Subdiv.face (Sds.subdiv s) (Simplex.of_list [ 0; 1 ]) with
        | Some f ->
          checki "edge face has 3 edges" 3
            (List.length (List.filter (fun x -> Simplex.dim x = 1) (Complex.facets f)))
        | None -> Alcotest.fail "face must exist");
    Alcotest.test_case "boundary of SDS(s^2) is a 9-cycle" `Quick (fun () ->
        let s = Sds.standard ~dim:2 ~levels:1 in
        match Complex.boundary (Chromatic.complex (Sds.complex s)) with
        | Some b ->
          checki "9 edges" 9 (Complex.num_facets b);
          checkb "connected" true (Complex.is_connected b)
        | None -> Alcotest.fail "expected boundary");
    Alcotest.test_case "mesh shrinks geometrically" `Quick (fun () ->
        let mesh b = Subdiv.mesh_sq (Sds.subdiv (Sds.standard ~dim:2 ~levels:b)) in
        check rat_testable "base mesh is sqrt(2)^2" (Rat.of_int 2) (mesh 0);
        checkb "level 1 smaller" true (Rat.compare (mesh 1) (mesh 0) < 0);
        checkb "level 2 smaller" true (Rat.compare (mesh 2) (mesh 1) < 0);
        (* squared mesh shrinks at least geometrically with ratio < 1/2 *)
        checkb "geometric" true
          (Rat.compare (mesh 2) (Rat.mul Rat.half (mesh 1)) < 0));
    Alcotest.test_case "vertex_of_view" `Quick (fun () ->
        let s = Sds.standard ~dim:1 ~levels:1 in
        let base_cx = Chromatic.complex (Sds.base s) in
        let full = Simplex.of_list (Complex.vertices base_cx) in
        match Sds.vertex_of_view s ~color:0 ~snap:full with
        | Some v ->
          checki "color" 0 (Sds.color s v);
          checkb "snap" true (Simplex.equal full (Sds.snap s v))
        | None -> Alcotest.fail "expected vertex");
  ]

(* Generic subdivision invariants, checked over a pool of subdivisions. *)
let subdiv_pool () =
  [
    ("SDS(s^1)", Sds.subdiv (Sds.standard ~dim:1 ~levels:1));
    ("SDS^2(s^1)", Sds.subdiv (Sds.standard ~dim:1 ~levels:2));
    ("SDS(s^2)", Sds.subdiv (Sds.standard ~dim:2 ~levels:1));
    ("SDS^2(s^2)", Sds.subdiv (Sds.standard ~dim:2 ~levels:2));
    ("Bsd(s^2)", Subdivision.subdiv (Subdivision.iterate (Chromatic.standard_simplex 2) 1));
    ("Bsd^2(s^1)", Subdivision.subdiv (Subdivision.iterate (Chromatic.standard_simplex 1) 2));
  ]

let subdiv_invariant_tests =
  [
    Alcotest.test_case "facet carriers are base facets" `Quick (fun () ->
        List.iter
          (fun (name, sd) ->
            let base_cx = Chromatic.complex sd.Subdiv.base in
            List.iter
              (fun f ->
                checkb name true
                  (Complex.is_facet (Subdiv.simplex_carrier sd f) base_cx))
              (Complex.facets (Chromatic.complex sd.Subdiv.cx)))
          (subdiv_pool ()));
    Alcotest.test_case "face subcomplexes close under the carrier order" `Quick (fun () ->
        List.iter
          (fun (name, sd) ->
            let base_cx = Chromatic.complex sd.Subdiv.base in
            List.iter
              (fun q ->
                match Subdiv.face sd q with
                | None -> Alcotest.fail (name ^ ": face must exist")
                | Some fc ->
                  List.iter
                    (fun s ->
                      checkb name true (Simplex.subset (Subdiv.simplex_carrier sd s) q))
                    (Complex.facets fc))
              (Complex.simplices base_cx))
          (subdiv_pool ()));
    Alcotest.test_case "boundary vertices carry proper faces" `Quick (fun () ->
        let sd = Sds.subdiv (Sds.standard ~dim:2 ~levels:1) in
        let bvs = Subdiv.boundary_vertices sd in
        checki "9 boundary vertices on SDS(s^2)" 9 (List.length bvs);
        List.iter
          (fun v -> checkb "carrier proper" true (Simplex.card (sd.Subdiv.carrier v) <= 2))
          bvs);
    Alcotest.test_case "carrier_of_point recovers supports" `Quick (fun () ->
        List.iter
          (fun (name, sd) ->
            List.iter
              (fun v ->
                match Subdiv.carrier_of_point sd (sd.Subdiv.point v) with
                | Some c -> checkb name true (Simplex.subset c (sd.Subdiv.carrier v))
                | None -> Alcotest.fail (name ^ ": vertex point must locate"))
              (Complex.vertices (Chromatic.complex sd.Subdiv.cx)))
          (subdiv_pool ()));
    Alcotest.test_case "locate_facet finds every vertex point" `Quick (fun () ->
        let sd = Sds.subdiv (Sds.standard ~dim:2 ~levels:1) in
        List.iter
          (fun v ->
            match Subdiv.locate_facet sd (sd.Subdiv.point v) with
            | Some f -> checkb "located facet contains vertex" true (Simplex.mem v f)
            | None -> Alcotest.fail "vertex must be located")
          (Complex.vertices (Chromatic.complex sd.Subdiv.cx)));
    Alcotest.test_case "levels compose facet counts multiplicatively" `Quick (fun () ->
        let one = Sds.standard ~dim:2 ~levels:1 in
        let two = Sds.subdivide one in
        checki "13 * 13" (13 * 13)
          (Complex.num_facets (Chromatic.complex (Sds.complex two))));
  ]

let bsd_unit_tests =
  [
    Alcotest.test_case "facet counts are factorial powers" `Quick (fun () ->
        List.iter
          (fun (n, k, expect) ->
            let b = Subdivision.iterate (Chromatic.standard_simplex n) k in
            checki
              (Printf.sprintf "Bsd^%d(s^%d)" k n)
              expect
              (Complex.num_facets (Chromatic.complex (Subdivision.complex b)));
            checki "count_facets agrees" expect (Subdivision.count_facets ~dim:n ~levels:k))
          [ (1, 1, 2); (1, 2, 4); (2, 1, 6); (2, 2, 36); (3, 1, 24) ]);
    Alcotest.test_case "geometric realization is exact" `Quick (fun () ->
        List.iter
          (fun (n, k) ->
            match
              Subdiv.check_geometric
                (Subdivision.subdiv (Subdivision.iterate (Chromatic.standard_simplex n) k))
            with
            | Ok () -> ()
            | Error e -> Alcotest.fail (Printf.sprintf "Bsd^%d(s^%d): %s" k n e))
          [ (1, 2); (2, 1); (2, 2); (3, 1) ]);
    Alcotest.test_case "dimension coloring" `Quick (fun () ->
        let b = Subdivision.iterate (Chromatic.standard_simplex 2) 1 in
        let cx = Subdivision.complex b in
        List.iter
          (fun v ->
            checki "color = dim of face"
              (Simplex.dim (Subdivision.face_of_vertex b v))
              (Chromatic.color cx v))
          (Complex.vertices (Chromatic.complex cx)));
    Alcotest.test_case "sds_to_bsd is simplicial and carrier preserving" `Quick (fun () ->
        List.iter
          (fun n ->
            let base = Chromatic.standard_simplex n in
            let s = Sds.iterate base 1 and b = Subdivision.iterate base 1 in
            let phi = Subdivision.sds_to_bsd s b in
            checkb "simplicial" true (Simplicial_map.is_simplicial phi);
            checkb "carrier preserving" true
              (Subdiv.is_carrier_preserving (Sds.subdiv s) (Subdivision.subdiv b) phi))
          [ 1; 2; 3 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Simplicial maps                                                      *)
(* ------------------------------------------------------------------ *)

let map_unit_tests =
  [
    Alcotest.test_case "identity" `Quick (fun () ->
        let c = Complex.full_simplex 2 in
        let id = Simplicial_map.identity c in
        checkb "simplicial" true (Simplicial_map.is_simplicial id);
        checkb "dimension preserving" true (Simplicial_map.is_dimension_preserving id);
        checkb "injective" true (Simplicial_map.is_injective id));
    Alcotest.test_case "collapse detection" `Quick (fun () ->
        let square = Complex.of_facets [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ] in
        let edge = Complex.of_facets [ [ 0; 1 ] ] in
        let fold = Simplicial_map.make ~src:square ~dst:edge (fun v -> v mod 2) in
        checkb "simplicial" true (Simplicial_map.is_simplicial fold);
        checkb "not dimension preserving is false here" true
          (Simplicial_map.is_dimension_preserving fold);
        checkb "not injective" false (Simplicial_map.is_injective fold));
    Alcotest.test_case "non-simplicial witness" `Quick (fun () ->
        let path = Complex.of_facets [ [ 0; 1 ]; [ 1; 2 ] ] in
        let sparse = Complex.of_facets [ [ 0; 1 ]; [ 2 ] ] in
        let bad = Simplicial_map.make ~src:path ~dst:sparse (fun v -> v) in
        match Simplicial_map.check_simplicial bad with
        | Error f -> checkb "witness is 1-2" true (Simplex.equal f (Simplex.of_list [ 1; 2 ]))
        | Ok () -> Alcotest.fail "expected failure");
    Alcotest.test_case "compose and image" `Quick (fun () ->
        let c = Complex.full_simplex 2 in
        let rot = Simplicial_map.make ~src:c ~dst:c (fun v -> (v + 1) mod 3) in
        let twice = Simplicial_map.compose rot rot in
        checki "rot twice of 0" 2 (Simplicial_map.apply_vertex twice 0);
        checkb "image is whole simplex" true (Complex.equal (Simplicial_map.image rot) c));
    Alcotest.test_case "color preservation" `Quick (fun () ->
        let c = Complex.full_simplex 2 in
        let id = Simplicial_map.identity c in
        checkb "id preserves" true
          (Simplicial_map.is_color_preserving ~src_color:(fun v -> v) ~dst_color:(fun v -> v) id));
  ]

(* ------------------------------------------------------------------ *)
(* Homology                                                             *)
(* ------------------------------------------------------------------ *)

let betti = Alcotest.array Alcotest.int

let homology_unit_tests =
  [
    Alcotest.test_case "balls are acyclic" `Quick (fun () ->
        checkb "s^3" true (Homology.is_acyclic (Complex.full_simplex 3));
        checkb "SDS^2(s^2)" true
          (Homology.is_acyclic (Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:2))));
        checkb "Bsd^2(s^2)" true
          (Homology.is_acyclic
             (Chromatic.complex
                (Subdivision.complex (Subdivision.iterate (Chromatic.standard_simplex 2) 2)))));
    Alcotest.test_case "spheres" `Quick (fun () ->
        let s1 = Option.get (Complex.boundary (Complex.full_simplex 2)) in
        check betti "circle" [| 0; 1 |] (Homology.reduced_betti s1);
        let s2 = Option.get (Complex.boundary (Complex.full_simplex 3)) in
        check betti "2-sphere" [| 0; 0; 1 |] (Homology.reduced_betti s2);
        let s3 = Option.get (Complex.boundary (Complex.full_simplex 4)) in
        check betti "3-sphere" [| 0; 0; 0; 1 |] (Homology.reduced_betti s3));
    Alcotest.test_case "torus" `Quick (fun () ->
        (* 7-vertex (Császár-style) torus: faces {i, i+1, i+3} and
           {i, i+2, i+3} mod 7 — every edge of K7 in exactly two faces. *)
        let face a b c i = [ (i + a) mod 7; (i + b) mod 7; (i + c) mod 7 ] in
        let torus =
          Complex.of_facets
            (List.init 7 (face 0 1 3) @ List.init 7 (face 0 2 3))
        in
        checki "14 faces" 14 (Complex.num_facets torus);
        checki "21 edges (K7)" 21 (List.length (Complex.faces torus ~dim:1));
        checki "euler zero" 0 (Complex.euler_characteristic torus);
        checkb "pseudomanifold" true (Complex.is_pseudomanifold torus);
        check betti "torus betti" [| 0; 2; 1 |] (Homology.reduced_betti torus);
        checkb "has a 1-hole" false (Homology.no_holes_up_to torus 2));
    Alcotest.test_case "disjoint circles" `Quick (fun () ->
        let c1 = Complex.of_facets [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
        let c2 = Complex.of_facets [ [ 3; 4 ]; [ 4; 5 ]; [ 3; 5 ] ] in
        let two = Complex.disjoint_union c1 c2 in
        check betti "two circles" [| 1; 2 |] (Homology.reduced_betti two);
        checkb "no holes up to 0" false (Homology.no_holes_up_to two 1));
    Alcotest.test_case "euler consistency" `Quick (fun () ->
        List.iter
          (fun c -> checkb (Complex.name c) true (Homology.euler_consistent c))
          [ Complex.full_simplex 3;
            Option.get (Complex.boundary (Complex.full_simplex 3));
            Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:1)) ]);
    Alcotest.test_case "lemma 2.2: SDS links have no low holes" `Quick (fun () ->
        let s = Sds.standard ~dim:2 ~levels:1 in
        let cx = Chromatic.complex (Sds.complex s) in
        List.iter
          (fun sq ->
            let q = Simplex.dim sq in
            match Complex.link sq cx with
            | None -> ()
            | Some l ->
              let max_hole = 2 - (q + 1) in
              if max_hole >= 1 then
                checkb
                  (Printf.sprintf "link of %s" (Simplex.to_string sq))
                  true
                  (Homology.no_holes_up_to l max_hole))
          (Complex.simplices cx));
  ]

(* ------------------------------------------------------------------ *)
(* Integer homology (Smith normal form)                                 *)
(* ------------------------------------------------------------------ *)

let rp2 () =
  Complex.of_facets
    [ [ 0; 1; 4 ]; [ 0; 1; 5 ]; [ 0; 2; 3 ]; [ 0; 2; 5 ]; [ 0; 3; 4 ];
      [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ 1; 3; 5 ]; [ 2; 4; 5 ]; [ 3; 4; 5 ] ]

let homology_z_unit_tests =
  [
    Alcotest.test_case "summaries of standard spaces" `Quick (fun () ->
        let check_summary name c expect =
          Alcotest.check Alcotest.string name expect (Homology_z.homology_summary c)
        in
        check_summary "ball" (Complex.full_simplex 3) "H0=Z  H1=0  H2=0  H3=0";
        check_summary "circle"
          (Complex.of_facets [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ])
          "H0=Z  H1=Z";
        check_summary "2-sphere"
          (Option.get (Complex.boundary (Complex.full_simplex 3)))
          "H0=Z  H1=0  H2=Z";
        let face a b c i = [ (i + a) mod 7; (i + b) mod 7; (i + c) mod 7 ] in
        check_summary "torus"
          (Complex.of_facets (List.init 7 (face 0 1 3) @ List.init 7 (face 0 2 3)))
          "H0=Z  H1=Z^2  H2=Z");
    Alcotest.test_case "projective plane has Z/2 torsion" `Quick (fun () ->
        let c = rp2 () in
        Alcotest.check Alcotest.string "summary" "H0=Z  H1=Z/2  H2=0"
          (Homology_z.homology_summary c);
        (* over Z/2 the torsion shows up as ranks instead *)
        check (Alcotest.array Alcotest.int) "Z/2 betti" [| 0; 1; 1 |] (Homology.reduced_betti c);
        checkb "not acyclic over Z" false (Homology_z.is_acyclic_z c);
        (* torsion invisible to free rank *)
        check (Alcotest.array Alcotest.int) "Z betti" [| 0; 0; 0 |]
          (Homology_z.reduced_betti_z c));
    Alcotest.test_case "SDS is acyclic over Z too" `Quick (fun () ->
        checkb "SDS^2(s^2)" true
          (Homology_z.is_acyclic_z (Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:2))));
        checkb "SDS(s^3)" true
          (Homology_z.is_acyclic_z (Chromatic.complex (Sds.complex (Sds.standard ~dim:3 ~levels:1)))));
    Alcotest.test_case "smith invariants of simple matrices" `Quick (fun () ->
        Alcotest.check (Alcotest.list Alcotest.int) "identity" [ 1; 1 ]
          (Homology_z.smith_invariants [| [| 1; 0 |]; [| 0; 1 |] |]);
        Alcotest.check (Alcotest.list Alcotest.int) "diag(2,6) normalized divisibility"
          [ 2; 6 ]
          (Homology_z.smith_invariants [| [| 2; 0 |]; [| 0; 6 |] |]);
        Alcotest.check (Alcotest.list Alcotest.int) "rank deficient" [ 1 ]
          (Homology_z.smith_invariants [| [| 1; 2 |]; [| 2; 4 |] |]);
        Alcotest.check (Alcotest.list Alcotest.int) "torsion 2" [ 1; 2 ]
          (Homology_z.smith_invariants [| [| 1; 1 |]; [| 1; -1 |] |]);
        Alcotest.check (Alcotest.list Alcotest.int) "zero matrix" []
          (Homology_z.smith_invariants [| [| 0; 0 |] |]));
    Alcotest.test_case "boundary of boundary is zero" `Quick (fun () ->
        let c = Complex.full_simplex 3 in
        let d2 = Homology_z.boundary_matrix c 2 in
        let d3 = Homology_z.boundary_matrix c 3 in
        (* d2 * d3 = 0 *)
        let rows = Array.length d2 and mid = Array.length d3 in
        if rows > 0 && mid > 0 then begin
          let cols = Array.length d3.(0) in
          for r = 0 to rows - 1 do
            for cc = 0 to cols - 1 do
              let s = ref 0 in
              for k = 0 to mid - 1 do
                s := !s + (d2.(r).(k) * d3.(k).(cc))
              done;
              checki "entry zero" 0 !s
            done
          done
        end);
  ]

let homology_z_prop_tests =
  [
    qtest ~count:60 "Z and Z/2 betti agree on random small complexes (no torsion there)"
      small_complex_gen
      (fun c ->
        (* random 2-ish dimensional complexes this small rarely have
           torsion; when ranks differ torsion must explain it *)
        let bz = Homology_z.betti_z c and b2 = Homology.betti c in
        let t = Homology_z.torsion c in
        Array.length bz = Array.length b2
        &&
        let even_part l = List.length (List.filter (fun d -> d mod 2 = 0) l) in
        let ok = ref true in
        Array.iteri
          (fun k bzk ->
            (* universal coefficients: dim H_k(Z/2) = b_k(Z) + 2-torsion of
               H_k + 2-torsion of H_{k-1} *)
            let torsion_here = even_part t.(k) in
            let torsion_below = if k > 0 then even_part t.(k - 1) else 0 in
            if b2.(k) <> bzk + torsion_here + torsion_below then ok := false)
          bz;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Iso                                                                  *)
(* ------------------------------------------------------------------ *)

let iso_unit_tests =
  [
    Alcotest.test_case "relabelled complexes are isomorphic" `Quick (fun () ->
        let c = triangle_plus_tail () in
        let r = Complex.relabel (fun v -> 7 - v) c in
        checkb "isomorphic" true (Iso.isomorphic c r));
    Alcotest.test_case "different shapes are not" `Quick (fun () ->
        let path = Complex.of_facets [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
        let star = Complex.of_facets [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ] ] in
        checkb "path vs star" false (Iso.isomorphic path star));
    Alcotest.test_case "color constraints matter" `Quick (fun () ->
        let e = Complex.of_facets [ [ 0; 1 ] ] in
        (* on a bare edge, swapping colors still has the flip isomorphism *)
        checkb "flip handles a color swap" true
          (Iso.isomorphic ~color_src:(fun v -> v) ~color_dst:(fun v -> 1 - v) e e);
        (* on an asymmetric complex, a color rotation kills all isomorphisms *)
        let c = triangle_plus_tail () in
        checkb "plain iso" true (Iso.isomorphic c c);
        checkb "rotated colors fail" false
          (Iso.isomorphic
             ~color_src:(fun v -> v)
             ~color_dst:(fun v -> (v + 1) mod 4)
             c c);
        checkb "consistent colors ok" true
          (Iso.isomorphic ~color_src:(fun v -> v) ~color_dst:(fun v -> v) c c));
    Alcotest.test_case "witness is a real isomorphism" `Quick (fun () ->
        let c = Chromatic.complex (Sds.complex (Sds.standard ~dim:1 ~levels:2)) in
        let r = Complex.relabel (fun v -> v + 100) c in
        match Iso.isomorphism c r with
        | Some phi ->
          checkb "simplicial" true (Simplicial_map.is_simplicial phi);
          checkb "injective" true (Simplicial_map.is_injective phi)
        | None -> Alcotest.fail "expected isomorphism");
    Alcotest.test_case "chromatic isomorphism of SDS relabellings" `Quick (fun () ->
        let a = Sds.complex (Sds.standard ~dim:1 ~levels:1) in
        let b =
          Chromatic.make
            (Complex.relabel (fun v -> v + 50) (Chromatic.complex a))
            ~color:(fun v -> Chromatic.color a (v - 50))
        in
        checkb "chromatic iso" true (Iso.chromatic_isomorphic a b));
  ]

(* A random complex over <= 7 vertices, a random coloring of 0..6 into
   three colors (or none), and a random relabelling: a permutation of 0..6
   shifted by 10, so the copy shares no vertex with the original. *)
let iso_case_gen =
  QCheck2.Gen.(
    triple small_complex_gen
      (opt ~ratio:0.5 (array_size (return 7) (int_range 0 2)))
      (map
         (fun keys ->
           let order = List.sort compare (List.mapi (fun v k -> (k, v)) keys) in
           let perm = Array.make 7 0 in
           List.iteri (fun i (_, v) -> perm.(v) <- i + 10) order;
           perm)
         (list_size (return 7) (int_range 0 1000))))

(* the vertex of 0..6 that the relabelling sends to [w] *)
let preimage perm w =
  let rec go v = if perm.(v) = w then v else go (v + 1) in
  go 0

(* whether some vertex bijection [a -> b] carries the facets of [a] onto
   the facets of [b] and, when colorings are given, preserves colors:
   tried over every bijection *)
let brute_isomorphic ?color_src ?color_dst a b =
  let va = Complex.vertices a and vb = Complex.vertices b in
  let facet_lists c = List.sort compare (List.map Simplex.to_list (Complex.facets c)) in
  let rec bijections = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (fun p -> x :: p) (bijections (List.filter (( <> ) x) l))) l
  in
  let colors_ok m =
    match (color_src, color_dst) with
    | None, None -> true
    | Some f, Some g -> List.for_all (fun (v, w) -> f v = g w) m
    | _ -> false
  in
  let image m f = List.sort compare (List.map (fun v -> List.assoc v m) f) in
  List.length va = List.length vb
  && List.exists
       (fun targets ->
         let m = List.combine va targets in
         colors_ok m && List.sort compare (List.map (image m) (facet_lists a)) = facet_lists b)
       (bijections vb)

let iso_prop_tests =
  [
    qtest ~count:100 "relabelled copies are isomorphic, with a real witness" iso_case_gen
      (fun (c, coloring, perm) ->
        let r = Complex.relabel (fun v -> perm.(v)) c in
        let color_src, color_dst =
          match coloring with
          | None -> (None, None)
          | Some col -> (Some (fun v -> col.(v)), Some (fun w -> col.(preimage perm w)))
        in
        match Iso.isomorphism ?color_src ?color_dst c r with
        | None -> false
        | Some phi ->
          let sorted = List.sort Simplex.compare in
          Simplicial_map.is_simplicial phi
          && Simplicial_map.is_injective phi
          && List.equal Simplex.equal
               (sorted (List.map (Simplicial_map.apply phi) (Complex.facets c)))
               (sorted (Complex.facets r))
          &&
          match (color_src, color_dst) with
          | Some f, Some g ->
            List.for_all (fun v -> g (Simplicial_map.apply_vertex phi v) = f v) (Complex.vertices c)
          | _ -> true);
    qtest ~count:200 "isomorphic agrees with a check over all bijections"
      QCheck2.Gen.(
        triple iso_case_gen (pair bool small_complex_gen)
          (frequency
             [
               (3, return `Carried);
               (3, map2 (fun v c -> `Recolored (v, c)) (int_range 0 6) (int_range 0 2));
               (1, return `Absent);
             ]))
      (fun ((a, coloring, perm), (copy_of_a, other), target_coloring) ->
        (* [b] is a relabelled copy of [a] or of an unrelated complex. When
           [a] is colored, [b] carries [a]'s coloring over, with one vertex
           recolored, or has no coloring; so both answers show up. *)
        let b = Complex.relabel (fun v -> perm.(v)) (if copy_of_a then a else other) in
        let color_src, color_dst =
          match (coloring, target_coloring) with
          | None, _ -> (None, None)
          | Some col, `Carried -> (Some (fun v -> col.(v)), Some (fun w -> col.(preimage perm w)))
          | Some col, `Recolored (u, c) ->
            ( Some (fun v -> col.(v)),
              Some (fun w -> if preimage perm w = u then c else col.(preimage perm w)) )
          | Some col, `Absent -> (Some (fun v -> col.(v)), None)
        in
        Iso.isomorphic ?color_src ?color_dst a b = brute_isomorphic ?color_src ?color_dst a b);
  ]

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

let export_unit_tests =
  [
    Alcotest.test_case "dot output mentions every edge" `Quick (fun () ->
        let c = triangle_plus_tail () in
        let dot = Export.dot c in
        checkb "has edge 2-3" true
          (contains dot "v2 -- v3" || contains dot "v3 -- v2"));
    Alcotest.test_case "svg well-formed-ish" `Quick (fun () ->
        let svg = Export.svg (Sds.subdiv (Sds.standard ~dim:2 ~levels:1)) in
        checkb "open tag" true (String.length svg > 100 && String.sub svg 0 4 = "<svg");
        checkb "closes" true (contains svg "</svg>"));
    Alcotest.test_case "tikz rejects high dimension" `Quick (fun () ->
        Alcotest.check_raises "dim 3" (Invalid_argument "Export: base dimension must be <= 2")
          (fun () -> ignore (Export.tikz (Sds.subdiv (Sds.standard ~dim:3 ~levels:1)))));
  ]

(* ------------------------------------------------------------------ *)
(* Fillin                                                               *)
(* ------------------------------------------------------------------ *)

let path_n n = Complex.of_facets (List.init n (fun i -> [ i; i + 1 ]))

let fillin_unit_tests =
  [
    Alcotest.test_case "paths in a path graph" `Quick (fun () ->
        let c = path_n 5 in
        Alcotest.check (Alcotest.option (Alcotest.list Alcotest.int)) "0 to 5"
          (Some [ 0; 1; 2; 3; 4; 5 ])
          (Fillin.path c ~src:0 ~dst:5);
        Alcotest.check (Alcotest.option Alcotest.int) "distance" (Some 5)
          (Fillin.distance c 0 5);
        Alcotest.check (Alcotest.option Alcotest.int) "midpoint rounds down" (Some 2)
          (Fillin.path_midpoint c 0 5);
        checki "diameter" 5 (Fillin.diameter c));
    Alcotest.test_case "path to self and disconnection" `Quick (fun () ->
        let c = path_n 3 in
        Alcotest.check (Alcotest.option (Alcotest.list Alcotest.int)) "self"
          (Some [ 1 ]) (Fillin.path c ~src:1 ~dst:1);
        let two = Complex.of_facets [ [ 0; 1 ]; [ 2; 3 ] ] in
        Alcotest.check (Alcotest.option (Alcotest.list Alcotest.int)) "disconnected" None
          (Fillin.path two ~src:0 ~dst:3));
    Alcotest.test_case "fill_path is a fill-in of the 0-sphere" `Quick (fun () ->
        let c = Chromatic.complex (Sds.complex (Sds.standard ~dim:2 ~levels:1)) in
        let vs = Complex.vertices c in
        let a = List.hd vs and b = List.nth vs (List.length vs - 1) in
        match Fillin.fill_path c a b with
        | Some p ->
          checkb "subcomplex" true (Complex.subcomplex p c);
          checkb "connected" true (Complex.is_connected p);
          checkb "contains endpoints" true (Complex.mem_vertex a p && Complex.mem_vertex b p)
        | None -> Alcotest.fail "path must exist");
    Alcotest.test_case "is_cycle" `Quick (fun () ->
        let tri = Complex.of_facets [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
        checkb "triangle cycle" true (Fillin.is_cycle tri [ 0; 1; 2 ]);
        checkb "too short" false (Fillin.is_cycle tri [ 0; 1 ]);
        checkb "repeats" false (Fillin.is_cycle tri [ 0; 1; 0 ]);
        checkb "missing edge" false (Fillin.is_cycle (path_n 3) [ 0; 1; 2 ]));
    Alcotest.test_case "fill_cycle: boundary of SDS(s^2) fills to all 13 triangles" `Quick
      (fun () ->
        let s = Sds.standard ~dim:2 ~levels:1 in
        let cx = Chromatic.complex (Sds.complex s) in
        let b = Option.get (Complex.boundary cx) in
        (* order the boundary cycle by walking it *)
        let next = Hashtbl.create 16 in
        List.iter
          (fun e ->
            match Simplex.to_list e with
            | [ a; b' ] ->
              let add x y =
                let l = try Hashtbl.find next x with Not_found -> [] in
                Hashtbl.replace next x (y :: l)
              in
              add a b';
              add b' a
            | _ -> ())
          (Complex.facets b);
        let start = List.hd (Complex.vertices b) in
        let rec walk prev v acc =
          let n = List.find (fun x -> x <> prev) (Hashtbl.find next v) in
          if n = start then List.rev acc else walk v n (n :: acc)
        in
        let cycle = walk (-1) start [ start ] in
        checkb "cycle" true (Fillin.is_cycle cx cycle);
        match Fillin.fill_cycle cx cycle with
        | Some d -> checki "all triangles" 13 (Complex.num_facets d)
        | None -> Alcotest.fail "boundary must bound");
    Alcotest.test_case "fill_cycle: interior cycle fills to the star" `Quick (fun () ->
        let s = Sds.standard ~dim:2 ~levels:1 in
        let cx = Chromatic.complex (Sds.complex s) in
        let center =
          List.find (fun v -> Simplex.card (Sds.carrier s v) = 3) (Complex.vertices cx)
        in
        let link = Option.get (Complex.link (Simplex.singleton center) cx) in
        let next = Hashtbl.create 16 in
        List.iter
          (fun e ->
            match Simplex.to_list e with
            | [ a; b' ] ->
              let add x y =
                let l = try Hashtbl.find next x with Not_found -> [] in
                Hashtbl.replace next x (y :: l)
              in
              add a b';
              add b' a
            | _ -> ())
          (Complex.faces link ~dim:1);
        let start = List.hd (Complex.vertices link) in
        let rec walk prev v acc =
          let n = List.find (fun x -> x <> prev) (Hashtbl.find next v) in
          if n = start then List.rev acc else walk v n (n :: acc)
        in
        let cycle = walk (-1) start [ start ] in
        match Fillin.fill_cycle cx cycle with
        | Some d ->
          checki "fills the closed star" (Complex.num_facets (Complex.star (Simplex.singleton center) cx))
            (Complex.num_facets d)
        | None -> Alcotest.fail "interior cycle must bound");
    Alcotest.test_case "fill_cycle rejects non-disks" `Quick (fun () ->
        let circle = Complex.of_facets [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
        checkb "1-complex has no 2-fill" true (Fillin.fill_cycle circle [ 0; 1; 2 ] = None));
  ]

let () =
  Alcotest.run "wfc_topology"
    [
      ("rat", rat_unit_tests @ rat_prop_tests);
      ("point", point_unit_tests @ point_prop_tests);
      ("simplex", simplex_unit_tests @ simplex_prop_tests);
      ("complex", complex_unit_tests @ complex_prop_tests);
      ("chromatic", chromatic_unit_tests);
      ("ordered-partition", op_unit_tests @ op_prop_tests);
      ("sds", sds_unit_tests);
      ("subdiv", subdiv_invariant_tests);
      ("bsd", bsd_unit_tests);
      ("simplicial-map", map_unit_tests);
      ("homology", homology_unit_tests);
      ("homology-z", homology_z_unit_tests @ homology_z_prop_tests);
      ("iso", iso_unit_tests @ iso_prop_tests);
      ("fillin", fillin_unit_tests);
      ("export", export_unit_tests);
    ]
