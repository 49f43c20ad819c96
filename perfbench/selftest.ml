(* The benchmark's own tests: catalogue.json must still describe this
   solver. Every catalogue question decides (never Exhausted) within a
   per-question time cap, and its inline verdict bytes match the golden
   digest; so a question drifting into Exhausted, or a verdict format
   change, fails here instead of silently skewing the cold workload.
   Regenerate with gen.exe when a change of verdicts is intended. *)

module S = Wfc_core.Solvability

let cap_s = 2.0

let cat = lazy (Catalogue.load "catalogue.json")

let solved =
  lazy
    (Array.map
       (fun (q, g) ->
         let verdict, record, seconds = Catalogue.solve_inline q in
         (q, g, verdict, record, seconds))
       (Lazy.force cat).Catalogue.questions)

let test_decides () =
  Array.iter
    (fun (q, _, verdict, _, seconds) ->
      (match verdict with
      | S.Exhausted _ -> Alcotest.failf "%s exhausted the node budget" (Catalogue.name q)
      | S.Solvable _ | S.Unsolvable_at _ -> ());
      if seconds > cap_s then
        Alcotest.failf "%s took %.2f s inline (cap %.1f s)" (Catalogue.name q) seconds cap_s)
    (Lazy.force solved)

let test_golden () =
  Array.iter
    (fun (q, (g : Catalogue.golden), verdict, record, _) ->
      Alcotest.(check string) (Catalogue.name q) g.verdict (S.verdict_name verdict);
      if not (Catalogue.matches g (Catalogue.verdict_bytes record)) then
        Alcotest.failf "%s: verdict bytes differ from the golden digest" (Catalogue.name q))
    (Lazy.force solved)

(* catalogue.json covers exactly the candidate list, each question once *)
let test_coverage () =
  let c = Lazy.force cat in
  let listed =
    List.map fst (Array.to_list c.questions) @ List.map fst c.excluded
  in
  Alcotest.(check (list string))
    "questions + excluded = candidates"
    (List.sort compare (List.map Catalogue.name (Catalogue.candidates ())))
    (List.sort compare (List.map Catalogue.name listed));
  List.iter
    (fun (q, reason) ->
      if reason = "" then Alcotest.failf "%s is excluded without a reason" (Catalogue.name q))
    c.excluded

let () =
  Alcotest.run "perfbench"
    [
      ( "catalogue",
        [
          Alcotest.test_case "covers every candidate once" `Quick test_coverage;
          Alcotest.test_case "every question decides within the cap" `Quick test_decides;
          Alcotest.test_case "golden digests match an inline solve" `Quick test_golden;
        ] );
    ]
