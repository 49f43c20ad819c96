(* Regenerates catalogue.json: solves every candidate question inline and
   records its golden verdict bytes, or its exclusion reason.

     dune exec perfbench/gen.exe -- perfbench/catalogue.json *)

let () =
  match Sys.argv with
  | [| _; out |] ->
    let c = Catalogue.generate ~progress:prerr_endline () in
    Wfc_obs.Report.write_file out (Catalogue.to_json c);
    Printf.printf "%d questions, %d excluded -> %s\n" (Array.length c.questions)
      (List.length c.excluded) out
  | _ ->
    prerr_endline "usage: gen.exe OUT.json";
    exit 2
