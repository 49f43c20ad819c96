(* The traced run's in-process replay: the workload's questions, in the
   workload's order, through the public functions of each layer a daemon
   request crosses, with a span around every call.

   Per question: [Instances.by_name] and [Task.digest] (what the daemon
   rebuilds on every request), [Sds.iterate] to the question's level, the
   task automorphisms lifted through [SDS^b], a [Collapse.run] of [SDS^b],
   then [Solvability.solve] as the daemon calls it (the subdivision memo is
   warm by then, so this is build + reducers + search + re-derivation) and,
   for solvable verdicts, the plain engine at the solved level alone (the
   canonical re-derivation). The record is then [Store.put] into a scratch
   store and found again from the LRU, from disk after the LRU is dropped,
   and as a miss under a level nothing was filed at. *)

module S = Wfc_core.Solvability

type t = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  mismatches : int;  (** inline verdict bytes differing from the golden digest *)
}

let counter name = Wfc_obs.Metrics.value (Wfc_obs.Metrics.counter name)

(* [order]: distinct catalogue indices in first-ask order; [weight q]: how
   often the workload asked [q], for the per-request task-layer means. *)
let run tr (cat : Catalogue.t) ~store_dir ~order ~weight =
  let st = Wfc_serve.Store.open_store store_dir in
  Wfc_serve.Store.attach_skeletons st;
  let skel0 = (counter "sds.skeleton.hits", counter "sds.skeleton.misses") in
  let budget = S.default_budget in
  let timed rid name f = Load.timed tr ~rid ~parent:"replay" name f in
  let dur name =
    List.filter_map
      (fun (s : Load.span) -> if s.name = name then Some (s.t1 -. s.t0) else None)
      tr.Load.spans
  in
  let mismatches = ref 0 and record_bytes = ref [] in
  let nodes = ref 0 and backtracks = ref 0 and prunes = ref 0 in
  let keys =
    List.map
      (fun q ->
        let question, golden = cat.questions.(q) in
        let task =
          timed q "tasks.by_name" (fun () ->
              Wfc_tasks.Instances.by_name ~name:question.Catalogue.task
                ~procs:question.procs ~param:question.param)
        in
        let digest = timed q "tasks.digest" (fun () -> Wfc_tasks.Task.digest task) in
        let model = Result.get_ok (Wfc_tasks.Model.of_string question.model) in
        let sds =
          timed q "sds.iterate" (fun () ->
              Wfc_topology.Sds.iterate task.Wfc_tasks.Task.input question.max_level)
        in
        timed q "automorphism" (fun () ->
            List.iter
              (fun a -> ignore (Wfc_topology.Automorphism.lift sds a.Wfc_tasks.Task.a_input))
              (Wfc_tasks.Task.automorphisms task));
        timed q "collapse" (fun () ->
            ignore
              (Wfc_topology.Collapse.run
                 (Wfc_topology.Chromatic.complex (Wfc_topology.Sds.complex sds))));
        let verdict =
          timed q "solvability.solve" (fun () ->
              S.solve ~opts:(S.options ~budget ~model ()) ~max_level:question.max_level task)
        in
        let stats = S.stats_of_verdict verdict in
        nodes := !nodes + stats.S.nodes;
        backtracks := !backtracks + stats.S.backtracks;
        prunes := !prunes + stats.S.prunes;
        (match verdict with
        | S.Solvable { map; _ } ->
          timed q "solvability.rerun" (fun () ->
              ignore
                (S.solve_at
                   ~opts:(S.options ~budget ~model ~symmetry:false ~collapse:false ())
                   task map.S.level))
        | _ -> ());
        let record =
          Wfc_serve.Store.record ~task
            ~spec:(Wfc_serve.Wire.spec_to_string (Catalogue.spec question))
            ~model:question.model ~max_level:question.max_level ~budget
            (S.outcome_of_verdict verdict)
        in
        if not (Catalogue.matches golden (Catalogue.verdict_bytes record)) then incr mismatches;
        timed q "storage.put" (fun () -> Wfc_serve.Store.put st record);
        record_bytes :=
          float_of_int
            (String.length (Wfc_obs.Json.to_string (Wfc_serve.Store.record_to_json record)))
          :: !record_bytes;
        let find level () =
          Wfc_serve.Store.find st ~digest ~model:question.model ~max_level:level ~budget
        in
        ignore (timed q "storage.find_cached" (find question.max_level));
        (q, find))
      order
  in
  Wfc_storage.Engine.cache_clear st;
  List.iter
    (fun (q, find) ->
      ignore (timed q "storage.find_disk" (find (fst cat.questions.(q)).max_level)))
    keys;
  List.iter (fun (q, find) -> ignore (timed q "storage.find_miss" (find (1000 + q)))) keys;
  Wfc_storage.Engine.close st;
  let skel_hits = counter "sds.skeleton.hits" - fst skel0
  and skel_misses = counter "sds.skeleton.misses" - snd skel0 in
  let weighted name =
    let w, s =
      List.fold_left
        (fun (w, s) (sp : Load.span) ->
          if sp.name <> name then (w, s)
          else
            let wq = float_of_int (weight sp.rid) in
            (w +. wq, s +. (wq *. (sp.t1 -. sp.t0))))
        (0., 0.) tr.Load.spans
    in
    if w = 0. then nan else s /. w
  in
  let ms name = (name ^ "_ms", Stats.mean (dur name) *. 1e3, "ms")
  and us name = (name ^ "_us", Stats.mean (dur name) *. 1e6, "us") in
  let solved = float_of_int (List.length order) in
  {
    metrics =
      [
        ("tasks.by_name_us", weighted "tasks.by_name" *. 1e6, "us");
        ("tasks.digest_us", weighted "tasks.digest" *. 1e6, "us");
        us "storage.find_cached";
        us "storage.find_disk";
        us "storage.find_miss";
        ms "storage.put";
        ("storage.record_bytes", Stats.mean !record_bytes, "bytes");
        ms "solvability.solve";
        ("solvability.nodes", float_of_int !nodes /. solved, "count");
        ("solvability.backtracks", float_of_int !backtracks /. solved, "count");
        ("solvability.prunes", float_of_int !prunes /. solved, "count");
        ms "solvability.rerun";
        ("sds.iterate_ms", Stats.mean (dur "sds.iterate") *. 1e3, "ms");
        ("automorphism.ms", Stats.mean (dur "automorphism") *. 1e3, "ms");
        ("collapse.ms", Stats.mean (dur "collapse") *. 1e3, "ms");
        ("sds.skeleton_hit_ratio", Stats.ratio skel_hits skel_misses, "ratio");
      ];
    mismatches = !mismatches;
  }
