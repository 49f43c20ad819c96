(* wfc — command-line explorer for wait-free computability.

   Subcommands mirror the paper's artifacts: subdivisions and their geometry
   (§2, §3.6), protocol complexes by execution (§3), the Figure-2 emulation
   (§4), task solvability (Prop 3.1), and convergence/approximation (§5).

   Output is unified through [Output]: subcommands that do measurable work
   accept [--stats] (print the Wfc_obs metrics) and [--json FILE] (write a
   wfc.obs.v1 report, same schema as bench/main.exe --json).

   Exit codes: 0 = clean verdict (including "unsolvable" — a completed
   exhaustive search is a successful answer), 3 = search budget exhausted
   (no verdict), 1/124/125 = cmdliner's usual failures. *)

open Cmdliner
open Wfc_topology
open Wfc_model
open Wfc_tasks
open Wfc_core

let exit_exhausted = 3

(* ---------- shared arguments ---------- *)

let dim_arg =
  Arg.(value & opt int 2 & info [ "n"; "dim" ] ~docv:"N" ~doc:"Dimension of the base simplex.")

let levels_arg =
  Arg.(value & opt int 1 & info [ "b"; "levels" ] ~docv:"B" ~doc:"Subdivision / round count.")

let procs_arg =
  Arg.(value & opt int 3 & info [ "p"; "procs" ] ~docv:"P" ~doc:"Number of processes.")

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Adversary seed.")

(* ---------- trace plumbing shared by emulate / simulate / trace / replay ---------- *)

let exit_unknown_schema = 4

let emulation_protocol = "emulation.full-info"

(* The runtime runs over the simulators; the simulated-process count rides
   in the protocol tag so replay can rebuild the spec from the meta alone. *)
let bg_protocol ~procs = Printf.sprintf "bg.full-info:%d" procs

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record the full run as a wfc.trace.v1 JSON trace to $(docv) (use - for stdout). \
           Without it, a bounded flight recorder retains the last 4096 events and dumps \
           them only on failure.")

let perfetto_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "perfetto" ] ~docv:"FILE"
        ~doc:"Export the run as a Chrome trace_event timeline for Perfetto / chrome://tracing.")

let write_json_to path j =
  if path = "-" then print_string (Wfc_obs.Json.to_string j)
  else begin
    Wfc_obs.Report.write_file path j;
    Format.eprintf "wrote %s@." path
  end

let read_json_from path =
  let contents =
    if path = "-" then In_channel.input_all stdin
    else In_channel.with_open_bin path In_channel.input_all
  in
  Wfc_obs.Json.parse contents

let trace_json meta tr = Trace_io.to_json Trace_io.string_value meta tr

let dump_flight_recorder ~path ~meta tr =
  Wfc_obs.Report.write_file path (trace_json meta tr);
  Format.eprintf "flight recorder: dumped %d retained event(s) to %s@." (List.length tr) path

let export_perfetto path tr =
  write_json_to path (Wfc_obs.Trace_event.to_json (Trace_io.to_trace_events ~show:Fun.id tr))

(* The §3.5 regression oracle on a recorded or replayed run: every memory
   level's firing sequence must induce legal immediate-snapshot views. *)
let check_is_levels tr =
  let rec go = function
    | [] -> Ok ()
    | (level, views) :: rest -> (
      match Trace.check_immediate_snapshot views with
      | Ok () -> go rest
      | Error e -> Error (Printf.sprintf "memory %d: %s" level e))
  in
  go (Trace.is_views_by_level tr)

(* ---------- sds ---------- *)

let sds_cmd =
  let run dim levels svg tikz stats json =
    let s, seconds = Output.timed (fun () -> Sds.standard ~dim ~levels) in
    let cx = Chromatic.complex (Sds.complex s) in
    Format.printf "%a@." Complex.pp_stats cx;
    Format.printf "expected facets: %d@." (Sds.count_facets ~dim ~levels);
    let geometric_ok =
      match Subdiv.check_geometric (Sds.subdiv s) with
      | Ok () ->
        Format.printf "geometric realization: exact@.";
        true
      | Error e ->
        Format.printf "geometric realization: BROKEN (%s)@." e;
        false
    in
    (match svg with
    | Some path ->
      let oc = open_out path in
      output_string oc (Export.svg (Sds.subdiv s));
      close_out oc;
      Format.printf "wrote %s@." path
    | None -> ());
    if tikz then print_string (Export.tikz (Sds.subdiv s));
    Output.emit ~stats ~json
      [
        Wfc_obs.Report.scenario
          ~extra:
            [
              ("facets", Wfc_obs.Json.Int (List.length (Complex.facets cx)));
              ("geometric_ok", Wfc_obs.Json.Bool geometric_ok);
            ]
          (Printf.sprintf "sds(dim=%d,levels=%d)" dim levels)
          seconds;
      ];
    0
  in
  let svg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG drawing.")
  in
  let tikz = Arg.(value & flag & info [ "tikz" ] ~doc:"Print a TikZ picture.") in
  Cmd.v
    (Cmd.info "sds" ~doc:"Iterated standard chromatic subdivision: stats, geometry, drawings.")
    Term.(
      const run $ dim_arg $ levels_arg $ svg $ tikz $ Output.stats_arg $ Output.json_arg)

(* ---------- homology ---------- *)

let homology_cmd =
  let run dim levels integer stats json =
    let (b, acyclic), seconds =
      Output.timed (fun () ->
          let cx = Chromatic.complex (Sds.complex (Sds.standard ~dim ~levels)) in
          let b = Homology.reduced_betti cx in
          let acyclic = Homology.is_acyclic cx in
          if integer then
            Format.printf "integer homology: %s@." (Homology_z.homology_summary cx);
          (b, acyclic))
    in
    Format.printf "SDS^%d(s^%d): reduced betti (Z/2) = (%s), acyclic = %b@." levels dim
      (String.concat "," (Array.to_list (Array.map string_of_int b)))
      acyclic;
    Output.emit ~stats ~json
      [
        Wfc_obs.Report.scenario
          ~extra:
            [
              ( "betti",
                Wfc_obs.Json.Arr
                  (Array.to_list (Array.map (fun x -> Wfc_obs.Json.Int x) b)) );
              ("acyclic", Wfc_obs.Json.Bool acyclic);
            ]
          (Printf.sprintf "homology(dim=%d,levels=%d)" dim levels)
          seconds;
      ];
    0
  in
  let integer =
    Arg.(value & flag & info [ "z"; "integer" ] ~doc:"Also compute integer homology (SNF).")
  in
  Cmd.v
    (Cmd.info "homology" ~doc:"Z/2 (and optionally Z) homology of SDS^b(s^n) (Lemma 2.2).")
    Term.(const run $ dim_arg $ levels_arg $ integer $ Output.stats_arg $ Output.json_arg)

(* ---------- simulate (BG simulation) ---------- *)

let simulate_cmd =
  let run simulators procs rounds seed crash trace_out perfetto =
    let spec = Bg_simulation.full_information_spec ~procs ~k:rounds in
    let strategy =
      match crash with
      | [] -> Runtime.random ~seed ()
      | victims -> Runtime.random_with_crashes ~seed ~crash:victims ()
    in
    let meta =
      Trace_io.meta ~seed ~crash ~protocol:(bg_protocol ~procs) ~procs:simulators ~rounds ()
    in
    let sink =
      if trace_out <> None || perfetto <> None then Runtime.Full else Runtime.Ring 4096
    in
    let dump_path =
      match trace_out with Some p when p <> "-" -> p | _ -> "wfc-failure.trace.json"
    in
    let on_trap tr = dump_flight_recorder ~path:dump_path ~meta tr in
    let r = Bg_simulation.run ~sink ~on_trap ~simulators spec strategy in
    Format.printf "completed simulated processes: %s@."
      (String.concat ","
         (Array.to_list (Array.mapi (fun j b -> Printf.sprintf "P%d:%b" j b) r.Bg_simulation.completed)));
    Format.printf "snapshot agreements: %d@." r.Bg_simulation.cost.Bg_simulation.agreements;
    Format.printf "ops per simulator: %s@."
      (String.concat ","
         (Array.to_list
            (Array.map string_of_int r.Bg_simulation.cost.Bg_simulation.simulator_ops)));
    (match trace_out with
    | Some path -> write_json_to path (trace_json meta (Lazy.force r.Bg_simulation.trace))
    | None -> ());
    (match perfetto with Some path -> export_perfetto path (Lazy.force r.Bg_simulation.trace) | None -> ());
    match Bg_simulation.check spec r with
    | Ok () ->
      Format.printf "simulated history: legal@.";
      0
    | Error e ->
      Format.printf "simulated history: BROKEN (%s)@." e;
      if trace_out = None then dump_flight_recorder ~path:dump_path ~meta (Lazy.force r.Bg_simulation.trace);
      1
  in
  let simulators =
    Arg.(value & opt int 2 & info [ "s"; "simulators" ] ~docv:"S" ~doc:"Number of simulators.")
  in
  let crash =
    Arg.(value & opt (list int) [] & info [ "crash" ] ~docv:"S,..." ~doc:"Crash these simulators.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"BG simulation: S crash-prone simulators run a P-process snapshot protocol.")
    Term.(
      const run $ simulators $ procs_arg $ levels_arg $ seed_arg $ crash $ trace_out_arg
      $ perfetto_arg)

(* ---------- protocol-complex ---------- *)

let pc_cmd =
  let run model procs rounds =
    let pc =
      match model with
      | "is" -> Protocol_complex.one_shot_is ~procs
      | "iis" -> Protocol_complex.iis ~procs ~rounds
      | "atomic" -> Protocol_complex.atomic ~procs ~rounds
      | m -> failwith ("unknown model: " ^ m)
    in
    Format.printf "%a@." Complex.pp_stats (Chromatic.complex pc.Protocol_complex.chromatic);
    if model <> "atomic" then begin
      let sds = Sds.standard ~dim:(procs - 1) ~levels:(if model = "is" then 1 else rounds) in
      Format.printf "matches SDS^b(s^n): %b@." (Protocol_complex.matches_sds pc sds)
    end;
    0
  in
  let model =
    Arg.(
      value
      & opt (enum [ ("is", "is"); ("iis", "iis"); ("atomic", "atomic") ]) "iis"
      & info [ "model" ] ~docv:"MODEL" ~doc:"One of is, iis, atomic.")
  in
  Cmd.v
    (Cmd.info "protocol-complex"
       ~doc:"Build a protocol complex by running every schedule (Lemmas 3.2/3.3).")
    Term.(const run $ model $ procs_arg $ levels_arg)

(* ---------- emulate ---------- *)

let emulate_cmd =
  let run procs rounds seed trace crash trace_out perfetto stats json =
    let spec = Emulation.full_information_spec ~procs ~k:rounds in
    let strategy =
      match crash with
      | [] -> Runtime.random ~seed ()
      | victims -> Runtime.random_with_crashes ~seed ~crash:victims ()
    in
    let meta = Trace_io.meta ~seed ~crash ~protocol:emulation_protocol ~procs ~rounds () in
    let sink =
      if trace_out <> None || perfetto <> None then Runtime.Full else Runtime.Ring 4096
    in
    let dump_path =
      match trace_out with Some p when p <> "-" -> p | _ -> "wfc-failure.trace.json"
    in
    let on_trap tr = dump_flight_recorder ~path:dump_path ~meta tr in
    let r, seconds =
      Output.timed (fun () -> Emulation.run ~sink ~on_trap ~show:Fun.id spec strategy)
    in
    let cost = r.Emulation.cost in
    Format.printf "IIS memories used: %d@." cost.Emulation.memories;
    Format.printf "WriteReads per process: %s@."
      (String.concat ", "
         (Array.to_list (Array.mapi (Printf.sprintf "P%d:%d") cost.Emulation.write_reads)));
    let atomic =
      match Emulation.check r with
      | Ok () ->
        Format.printf "atomicity: OK@.";
        true
      | Error e ->
        Format.printf "atomicity: VIOLATED (%s)@." e;
        false
    in
    if trace then
      List.iter
        (fun o ->
          match o.Trace.kind with
          | `Write sq ->
            Format.printf "  P%d write#%d  [%d,%d]@." o.Trace.proc sq o.Trace.t_start
              o.Trace.t_end
          | `Snapshot v ->
            Format.printf "  P%d snap (%s)  [%d,%d]@." o.Trace.proc
              (String.concat "," (Array.to_list (Array.map string_of_int v)))
              o.Trace.t_start o.Trace.t_end)
        r.Emulation.ops;
    (match trace_out with
    | Some path -> write_json_to path (trace_json meta (Lazy.force r.Emulation.trace))
    | None -> if not atomic then dump_flight_recorder ~path:dump_path ~meta (Lazy.force r.Emulation.trace));
    (match perfetto with Some path -> export_perfetto path (Lazy.force r.Emulation.trace) | None -> ());
    Output.emit ~stats ~json
      [
        Wfc_obs.Report.scenario
          ~verdict:(if atomic then "atomic" else "violated")
          ~extra:
            [
              ("memories", Wfc_obs.Json.Int cost.Emulation.memories);
              ( "write_reads",
                Wfc_obs.Json.Int (Array.fold_left ( + ) 0 cost.Emulation.write_reads) );
              ("steps", Wfc_obs.Json.Int cost.Emulation.steps);
            ]
          (Printf.sprintf "emulate(procs=%d,rounds=%d,seed=%d)" procs rounds seed)
          seconds;
      ];
    if atomic then 0 else 1
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the emulated operation log.") in
  let crash =
    Arg.(value & opt (list int) [] & info [ "crash" ] ~docv:"P,..." ~doc:"Crash these processes.")
  in
  Cmd.v
    (Cmd.info "emulate"
       ~doc:"Emulate the k-shot atomic snapshot protocol over IIS (Figure 2) and certify it.")
    Term.(
      const run $ procs_arg $ levels_arg $ seed_arg $ trace $ crash $ trace_out_arg
      $ perfetto_arg $ Output.stats_arg $ Output.json_arg)

(* ---------- trace / replay ---------- *)

let trace_cmd =
  let run protocol simulators procs rounds seed crash out perfetto =
    let strategy () =
      match crash with
      | [] -> Runtime.random ~seed ()
      | victims -> Runtime.random_with_crashes ~seed ~crash:victims ()
    in
    let meta, tr, check =
      match protocol with
      | "emulation" ->
        let spec = Emulation.full_information_spec ~procs ~k:rounds in
        let meta = Trace_io.meta ~seed ~crash ~protocol:emulation_protocol ~procs ~rounds () in
        let r = Emulation.run ~sink:Runtime.Full ~show:Fun.id spec (strategy ()) in
        (meta, (Lazy.force r.Emulation.trace), Emulation.check r)
      | _ ->
        let spec = Bg_simulation.full_information_spec ~procs ~k:rounds in
        let meta =
          Trace_io.meta ~seed ~crash ~protocol:(bg_protocol ~procs) ~procs:simulators ~rounds ()
        in
        let r = Bg_simulation.run ~sink:Runtime.Full ~simulators spec (strategy ()) in
        (meta, (Lazy.force r.Bg_simulation.trace), Bg_simulation.check spec r)
    in
    write_json_to out (trace_json meta tr);
    Format.eprintf "recorded %d event(s), %d decision(s)@." (List.length tr)
      (List.length (Trace_io.decisions_of tr));
    (match perfetto with Some path -> export_perfetto path tr | None -> ());
    match check with
    | Ok () -> 0
    | Error e ->
      Format.eprintf "recorded run FAILS its checker: %s@." e;
      1
  in
  let protocol =
    Arg.(
      value
      & opt (enum [ ("emulation", "emulation"); ("bg", "bg") ]) "emulation"
      & info [ "protocol" ] ~docv:"PROTO" ~doc:"What to record: emulation or bg.")
  in
  let simulators =
    Arg.(value & opt int 2 & info [ "s"; "simulators" ] ~docv:"S" ~doc:"Simulators (bg only).")
  in
  let crash =
    Arg.(value & opt (list int) [] & info [ "crash" ] ~docv:"P,..." ~doc:"Crash these processes.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Trace destination (default: stdout).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a seeded run as a persistent wfc.trace.v1 JSON trace — the input of $(b,wfc \
          replay) and of Perfetto export.")
    Term.(
      const run $ protocol $ simulators $ procs_arg $ levels_arg $ seed_arg $ crash $ out
      $ perfetto_arg)

let replay_cmd =
  let run file out perfetto =
    match read_json_from file with
    | Error e ->
      Format.eprintf "%s: not valid JSON (%s)@." file e;
      1
    | Ok j -> (
      match Trace_io.of_json Trace_io.string_of_value j with
      | Error e ->
        Format.eprintf "%s: invalid %s trace (%s)@." file Trace_io.schema_version e;
        1
      | Ok (meta, recorded) -> (
        let decisions = Trace_io.decisions_of recorded in
        let rerun () =
          if meta.Trace_io.protocol = emulation_protocol then begin
            let spec =
              Emulation.full_information_spec ~procs:meta.Trace_io.procs
                ~k:meta.Trace_io.rounds
            in
            let r =
              Emulation.run ~sink:Runtime.Full ~show:Fun.id spec (Trace_io.replay decisions)
            in
            Some ((Lazy.force r.Emulation.trace), Emulation.check r)
          end
          else
            match String.split_on_char ':' meta.Trace_io.protocol with
            | [ "bg.full-info"; m ] -> (
              match int_of_string_opt m with
              | None -> None
              | Some m ->
                let spec = Bg_simulation.full_information_spec ~procs:m ~k:meta.Trace_io.rounds in
                let r =
                  Bg_simulation.run ~sink:Runtime.Full ~simulators:meta.Trace_io.procs spec
                    (Trace_io.replay decisions)
                in
                Some ((Lazy.force r.Bg_simulation.trace), Bg_simulation.check spec r))
            | _ -> None
        in
        match rerun () with
        | None ->
          Format.eprintf "%s: unknown protocol %S@." file meta.Trace_io.protocol;
          1
        | Some (replayed, protocol_check) ->
          let original_bytes = Wfc_obs.Json.to_string (trace_json meta recorded) in
          let replayed_bytes = Wfc_obs.Json.to_string (trace_json meta replayed) in
          let identical = String.equal original_bytes replayed_bytes in
          Format.printf "replayed %d decision(s)@." (List.length decisions);
          Format.printf "canonical trace byte-identical: %b@." identical;
          let is_check = check_is_levels replayed in
          (match is_check with
          | Ok () -> Format.printf "immediate-snapshot views (§3.5): OK@."
          | Error e -> Format.printf "immediate-snapshot views (§3.5): VIOLATED (%s)@." e);
          (match protocol_check with
          | Ok () -> Format.printf "protocol checker: OK@."
          | Error e -> Format.printf "protocol checker: VIOLATED (%s)@." e);
          (match out with
          | Some path -> write_json_to path (trace_json meta replayed)
          | None -> ());
          (match perfetto with Some path -> export_perfetto path replayed | None -> ());
          if identical && is_check = Ok () && protocol_check = Ok () then 0 else 1))
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"wfc.trace.v1 trace to replay (use - for stdin).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the replayed canonical trace to $(docv).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically re-execute a recorded trace, re-run the correctness checkers, and \
          verify the replayed canonical trace is byte-identical. Exits non-zero on any \
          divergence.")
    Term.(const run $ file $ out $ perfetto_arg)

(* ---------- solve ---------- *)

(* an unknown name or an impossible parameter is a usage error, not a crash *)
let task_of name procs param =
  if not (List.mem name Instances.known) then
    Error
      (Printf.sprintf "unknown task %S; expected one of: %s" name
         (String.concat ", " Instances.known))
  else
    match Instances.by_name ~name ~procs ~param with
    | t -> Ok t
    | exception (Invalid_argument m | Failure m) -> Error (Printf.sprintf "task %s: %s" name m)

(* shared by solve / query / serve / store *)

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "wfc.sock"

let socket_arg =
  Arg.(
    value & opt string default_socket
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the verdict daemon.")

let store_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Persistent wfc.store.v2 verdict store: reused on hits, updated on misses.")

let store_req_arg =
  Arg.(
    value & opt string ".wfc-store"
    & info [ "store" ] ~docv:"DIR" ~doc:"The wfc.store.v2 verdict store directory.")

let verdict_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "verdict-out" ] ~docv:"FILE"
        ~doc:
          "Write the canonical verdict object (the wfc.store.v2 record minus its timing \
           fields — every byte a deterministic function of the question, identical across \
           solve / query / store hits) to $(docv); - for stdout.")

(* --model parses eagerly: an unknown model name dies in argument parsing,
   before any complex is built *)
let model_conv : Model.t Arg.conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Model.of_string s) in
  Arg.conv ~docv:"MODEL" (parse, fun ppf m -> Format.pp_print_string ppf (Model.to_string m))

let model_arg =
  Arg.(
    value
    & opt model_conv Model.wait_free
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          "Computation model to decide solvability under: wait-free (default), \
           t-resilient:T, or k-set:K — an affine restriction of the IIS runs. See $(b,wfc \
           models).")

(* [symmetry]/[collapse] are ignored fields (see Wfc_serve.Wire.spec) *)
let wire_spec ~task ~procs ~param ~max_level ~model =
  { Wfc_serve.Wire.task; procs; param; max_level; model; symmetry = true; collapse = true }

let task_arg =
  Arg.(
    value
    & opt string "consensus"
    & info [ "task" ] ~docv:"TASK"
        ~doc:
          "One of consensus, set-consensus, renaming, approx, identity, tas, fai, loop-disk, \
           loop-circle.")

let param_arg =
  Arg.(
    value & opt int 2
    & info [ "param" ] ~docv:"K"
        ~doc:"Task parameter: k for set-consensus, names for renaming, grid for approx.")

let max_level_arg =
  Arg.(value & opt int 2 & info [ "max-level" ] ~docv:"B" ~doc:"Largest round count to try.")

let solve_cmd =
  let run (task, procs, param, t) max_level model validate search_trace store_dir verdict_out
      perfetto stats json =
    let opts = Solvability.options ~trace:search_trace ~model () in
    let model_name = Model.to_string model in
    Format.printf "%a@." Task.pp_stats t;
    if not (Model.equal model Model.wait_free) then
      Format.printf "model: %s@." model_name;
    let store = Option.map Wfc_storage.Engine.open_store store_dir in
    let emit_verdict record =
      match verdict_out with
      | Some path -> write_json_to path (Wfc_storage.Record.verdict_json record)
      | None -> ()
    in
    let spec =
      Wfc_serve.Wire.spec_to_string (wire_spec ~task ~procs ~param ~max_level ~model:model_name)
    in
    (* a store hit answers without building a single subdivision *)
    match Wfc_storage.Engine.answer store ~opts ~spec ~max_level t with
    | Error e ->
      Format.eprintf "%s@." (Wfc_storage.Engine.error_to_string e);
      1
    | Ok (Wfc_storage.Engine.Stored r) ->
      let o = r.Wfc_storage.Record.outcome in
      Format.printf "verdict from store: %s at level %d (nodes=%d)@." o.Solvability.o_verdict
        o.Solvability.o_level o.Solvability.o_nodes;
      emit_verdict r;
      if o.Solvability.o_verdict = "exhausted" then exit_exhausted else 0
    | Ok (Wfc_storage.Engine.Computed { record; verdict; _ }) ->
    let vstats = Solvability.stats_of_verdict verdict in
    let level =
      match verdict with
      | Solvability.Solvable { map; _ } -> map.Solvability.level
      | Solvability.Unsolvable_at { level; _ } | Solvability.Exhausted { level; _ } -> level
    in
    let code =
      match verdict with
      | Solvability.Solvable { map; _ } ->
        (* Engine.answer returns a Solvable only once its map verifies *)
        Format.printf "SOLVABLE with %d IIS round(s); map verified: true@."
          map.Solvability.level;
        if validate then begin
          (* the distributed validator drives arbitrary adversary runs, which
             can leave a restricting model's admitted sub-complex *)
          if not (Model.equal model Model.wait_free) then
            Format.printf "distributed validation: skipped (only defined for wait-free)@."
          else
            match Characterization.validate map with
            | Ok () -> Format.printf "distributed validation: OK@."
            | Error e -> Format.printf "distributed validation: FAILED (%s)@." e
        end;
        0
      | Solvability.Unsolvable_at { level = b; trail; _ } ->
        (* a completed exhaustive search IS the answer: exit 0 *)
        Format.printf "UNSOLVABLE for every b <= %d (search space exhausted)@." b;
        if search_trace then
          Format.printf "refutation trail: %d recorded search event(s)@." (List.length trail);
        0
      | Solvability.Exhausted { level; stats = s } ->
        Format.printf "UNDECIDED at b = %d (budget: %d nodes)@." level s.Solvability.nodes;
        exit_exhausted
    in
    if stats then Format.printf "search: %a@." Solvability.pp_stats vstats;
    let trail_extra =
      match verdict with
      | Solvability.Unsolvable_at { trail; _ } when search_trace ->
        [ ("search_trail", Wfc_obs.Json.Arr (List.map Solvability.search_event_to_json trail)) ]
      | _ -> []
    in
    Output.emit ~stats ~json
      [
        Wfc_obs.Report.scenario ~nodes:vstats.Solvability.nodes
          ~verdict:(Solvability.verdict_name verdict)
          ~extra:
            ([
               ("level", Wfc_obs.Json.Int level);
               ("backtracks", Wfc_obs.Json.Int vstats.Solvability.backtracks);
               ("prunes", Wfc_obs.Json.Int vstats.Solvability.prunes);
             ]
            @ trail_extra)
          (Printf.sprintf "solve(%s,procs=%d,param=%d)" task procs param)
          vstats.Solvability.elapsed;
      ];
    (match perfetto with
    | Some path ->
      let events = Wfc_obs.Trace_event.of_spans (Wfc_obs.Metrics.spans_now ()) in
      Wfc_obs.Report.write_file path (Wfc_obs.Trace_event.to_json events);
      Printf.eprintf "wrote %s\n%!" path
    | None -> ());
    emit_verdict record;
    code
  in
  let validate =
    Arg.(value & flag & info [ "validate" ] ~doc:"Run the found map as a distributed protocol.")
  in
  let search_trace =
    Arg.(
      value & flag
      & info [ "search-trace" ]
          ~doc:
            "Record the backtracking search into a bounded ring; an unsolvable verdict then \
             carries a machine-readable refutation trail (embedded in the --json report). \
             The traced search runs the plain canonical engine alone (most-constrained-first, \
             no symmetry pruning, never the reduced fallback), so $(b,--stats) then reports \
             that engine's tallies.")
  in
  let solve_perfetto =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Export the search's span tree (per-level solve spans, subdivision work) as a \
             Chrome trace_event timeline for Perfetto / chrome://tracing.")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Decide solvability of a task (Proposition 3.1) under a computation model \
          ($(b,--model), wait-free by default). Exits 0 on a verdict (solvable or \
          unsolvable), 3 if the node budget ran out. With $(b,--store), verdicts persist \
          across invocations and known questions are answered from disk.")
    Term.(
      const run
      $ term_result' ~usage:true
          (const (fun task procs param ->
               Result.map (fun t -> (task, procs, param, t)) (task_of task procs param))
          $ task_arg $ procs_arg $ param_arg)
      $ max_level_arg $ model_arg $ validate $ search_trace $ store_opt_arg
      $ verdict_out_arg $ solve_perfetto $ Output.stats_arg $ Output.json_arg)

(* ---------- serve / query / store ---------- *)

let serve_cmd =
  let run socket store_dir queue log log_level slow_ms stop =
    if stop then (
      match Wfc_serve.Client.connect ~socket with
      | Error e ->
        Format.eprintf "%s@." e;
        1
      | Ok c ->
        let r = Wfc_serve.Client.shutdown c in
        Wfc_serve.Client.close c;
        (match r with
        | Ok () ->
          Format.printf "daemon on %s stopped@." socket;
          0
        | Error e ->
          Format.eprintf "%s@." e;
          1))
    else begin
      Format.printf "wfc serve: socket=%s store=%s queue=%d@." socket store_dir queue;
      match Wfc_obs.Log.level_of_string log_level with
      | Error e ->
        Format.eprintf "%s@." e;
        1
      | Ok log_level -> (
        let cfg =
          Wfc_serve.Daemon.config ~queue_capacity:queue ?log ~log_level ?slow_ms ~socket
            ~store_dir ()
        in
        match Wfc_serve.Daemon.run cfg with
        | () -> 0
        | exception Failure m ->
          Format.eprintf "%s@." m;
          1)
    end
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded request queue: queries beyond $(docv) pending questions are shed \
             (explicit backpressure) instead of buffered.")
  in
  let log =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Append one wfc.log.v1 JSONL event line per request lifecycle event to $(docv) \
             (validated by $(b,wfc check-json)).")
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Minimum event level written to --log: debug, info, warn or error.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log a $(i,slow_query) warning (spec, verdict source, search stats, stage \
             timing) for any query at least $(docv) milliseconds end-to-end.")
  in
  let stop =
    Arg.(value & flag & info [ "stop" ] ~doc:"Ask the daemon on --socket to shut down cleanly.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the solvability daemon: a persistent verdict store plus in-flight dedup behind \
          a Unix-domain socket. Answers $(b,wfc query) traffic; one solver thread works \
          through cold questions round-robin across task digests. Request lifecycles are \
          measured stage by stage and optionally logged with $(b,--log); read the live \
          metrics with $(b,wfc stats), whose $(b,--json) writes the wfc.obs.v1 report. Shut \
          down with $(b,--stop), SIGINT or SIGTERM; survives SIGKILL with a loadable store.")
    Term.(
      const run $ socket_arg $ store_req_arg $ queue $ log $ log_level $ slow_ms $ stop)

let query_cmd =
  let run task procs param max_level model socket store_dir no_daemon ping verdict_out stats
      json =
    let model_name = Model.to_string model in
    if ping then (
      match Wfc_serve.Client.connect ~socket with
      | Ok c -> (
        let r = Wfc_serve.Client.ping_info c in
        Wfc_serve.Client.close c;
        match r with
        | Ok (version, uptime_s) ->
          (* a pre-telemetry daemon ponged with no payload; still a pong *)
          Format.printf "pong%s%s@."
            (match version with Some v -> " version=" ^ v | None -> "")
            (match uptime_s with
            | Some u -> Printf.sprintf " uptime=%.1fs" u
            | None -> "");
          0
        | Error _ ->
          Format.eprintf "daemon on %s did not answer@." socket;
          1)
      | Error e ->
        Format.eprintf "%s@." e;
        1)
    else begin
      let spec = wire_spec ~task ~procs ~param ~max_level ~model:model_name in
      let finish ?req_id ?timing ~source record =
        let o = record.Wfc_storage.Record.outcome in
        Format.printf "verdict: %s at level %d (source=%s, nodes=%d)@."
          o.Solvability.o_verdict o.Solvability.o_level source o.Solvability.o_nodes;
        Format.printf "digest: %s@." record.Wfc_storage.Record.digest;
        (* daemon-side telemetry, echoed on the wire; absent on inline solves
           and against pre-telemetry daemons *)
        (match timing with
        | Some t ->
          Format.printf "timing: queue_wait=%.6fs solve=%.6fs store=%.6fs total=%.6fs@."
            t.Wfc_serve.Wire.queue_wait_s t.Wfc_serve.Wire.solve_s t.Wfc_serve.Wire.store_s
            t.Wfc_serve.Wire.total_s
        | None -> ());
        (match verdict_out with
        | Some path -> write_json_to path (Wfc_storage.Record.verdict_json record)
        | None -> ());
        Output.emit ~stats ~json
          [
            Wfc_obs.Report.scenario ~nodes:o.Solvability.o_nodes
              ~verdict:o.Solvability.o_verdict
              ~extra:
                ([
                   ("source", Wfc_obs.Json.String source);
                   ("level", Wfc_obs.Json.Int o.Solvability.o_level);
                   ("digest", Wfc_obs.Json.String record.Wfc_storage.Record.digest);
                 ]
                @ (match req_id with
                  | Some id -> [ ("req_id", Wfc_obs.Json.String id) ]
                  | None -> [])
                @
                match timing with
                | Some t -> [ ("timing", Wfc_serve.Wire.timing_to_json t) ]
                | None -> [])
              (Printf.sprintf "query(%s)" (Wfc_serve.Wire.spec_to_string spec))
              o.Solvability.o_elapsed;
          ];
        if o.Solvability.o_verdict = "exhausted" then exit_exhausted else 0
      in
      (* No daemon (or a shed response) degrades to an inline answer through
         the same Engine.answer the daemon uses, so the printed verdict and
         --verdict-out bytes cannot depend on who computed. *)
      let inline reason =
        Format.eprintf "query: %s; solving inline@." reason;
        match Instances.by_name ~name:task ~procs ~param with
        | exception Invalid_argument m ->
          Format.eprintf "%s@." m;
          1
        | t -> (
          match
            Wfc_storage.Engine.answer
              (Option.map Wfc_storage.Engine.open_store store_dir)
              ~opts:(Solvability.options ~model ())
              ~spec:(Wfc_serve.Wire.spec_to_string spec) ~max_level t
          with
          | Ok (Wfc_storage.Engine.Stored r) -> finish ~source:"store" r
          | Ok (Wfc_storage.Engine.Computed { record; _ }) -> finish ~source:"inline" record
          | Error e ->
            Format.eprintf "%s@." (Wfc_storage.Engine.error_to_string e);
            1)
      in
      if no_daemon then inline "daemon disabled (--no-daemon)"
      else
        match Wfc_serve.Client.connect ~socket with
        | Error e -> inline e
        | Ok c -> (
          (* correlate this CLI invocation with the daemon's log lines *)
          let req_id =
            Printf.sprintf "cli-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6)
          in
          let r = Wfc_serve.Client.query ~req_id c spec in
          Wfc_serve.Client.close c;
          match r with
          | Ok (Wfc_serve.Wire.Verdict { source; record; req_id; timing }) ->
            finish ?req_id ?timing ~source:(Wfc_serve.Wire.source_name source) record
          | Ok Wfc_serve.Wire.Shed -> inline "daemon shed the request (queue full)"
          | Ok (Wfc_serve.Wire.Failed m) ->
            Format.eprintf "daemon error: %s@." m;
            1
          | Ok _ ->
            Format.eprintf "unexpected daemon response@.";
            1
          | Error e ->
            Format.eprintf "%s@." e;
            1)
    end
  in
  let no_daemon =
    Arg.(
      value & flag
      & info [ "no-daemon" ] ~doc:"Skip the daemon and solve inline (still uses --store).")
  in
  let ping =
    Arg.(
      value & flag
      & info [ "ping" ] ~doc:"Only probe the daemon: exit 0 iff it answers a ping.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Ask the solvability daemon for a task verdict; falls back to an inline solve when \
          no daemon answers or the daemon sheds. Identical questions return byte-identical \
          canonical verdicts whatever the path (daemon store hit, daemon computation, \
          coalesced wait, inline).")
    Term.(
      const run $ task_arg $ procs_arg $ param_arg $ max_level_arg $ model_arg $ socket_arg
      $ store_opt_arg $ no_daemon $ ping $ verdict_out_arg $ Output.stats_arg $ Output.json_arg)

let stats_cmd =
  let run socket prometheus json =
    let open Wfc_obs in
    let reply =
      match Wfc_serve.Client.connect ~socket with
      | Error e -> Error e
      | Ok c ->
        let r = Wfc_serve.Client.stats c in
        Wfc_serve.Client.close c;
        Result.bind r (fun (metrics, server) ->
            match Snapshot.of_json metrics with
            | Ok snap -> Ok (snap, server)
            | Error e -> Error ("unreadable stats reply: " ^ e))
    in
    match reply with
    | Error e ->
      Format.eprintf "%s@." e;
      1
    | Ok (snap, server) ->
      let field ?(o = server) k = Option.bind o (Json.member k) in
      let num ?o k =
        match field ?o k with
        | Some (Json.Float f) -> Some f
        | Some (Json.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      let text ?o k =
        match field ?o k with
        | Some (Json.String v) -> v
        | Some (Json.Int i) -> string_of_int i
        | _ -> "?"
      in
      let uptime = Option.value ~default:0. (num "uptime_s") in
      let memo = field "task_memo" in
      let connections = field "connections" in
      (* (name, entries) of each solver memo, in the server block's (sorted) order *)
      let solver_memos =
        match field "solver_memo" with
        | Some (Json.Obj kv) ->
          List.filter_map (function n, Json.Int i -> Some (n, i) | _ -> None) kv
        | _ -> []
      in
      if prometheus then begin
        print_string (Snapshot.to_prometheus snap);
        List.iter
          (fun (value, metric, digits) ->
            match value with
            | Some v -> Printf.printf "# TYPE %s gauge\n%s %.*f\n" metric metric digits v
            | None -> ())
          ([ (num "uptime_s", "wfc_uptime_seconds", 6); (num "inflight", "wfc_inflight", 0);
             (num "queue_depth", "wfc_queue_depth", 0);
             (num ~o:connections "open", "wfc_connections_open", 0);
             (num ~o:memo "size", "wfc_task_memo_size", 0) ]
          @ List.map
              (fun (name, n) ->
                (Some (float_of_int n), Printf.sprintf "wfc_%s_memo_size" name, 0))
              solver_memos)
      end
      else begin
        if server = None then print_endline "daemon: (pre-telemetry daemon — no server block)"
        else
          Printf.printf "daemon: version=%s uptime=%.1fs inflight=%s queue=%s/%s%s%s%s\n"
            (text "version") uptime (text "inflight") (text "queue_depth")
            (text "queue_capacity")
            (String.concat ""
               (List.map (fun (name, n) -> Printf.sprintf " %s_memo=%d" name n) solver_memos))
            (match connections with
            | Some _ as o ->
              Printf.sprintf " connections=%s/%s" (text ~o "open") (text ~o "capacity")
            | None -> "")
            (match memo with
            | Some _ as o ->
              Printf.sprintf " task_memo=%s/%s" (text ~o "size") (text ~o "capacity")
            | None -> "");
        (match field "solver" with
        | Some _ as o ->
          Printf.printf "solver: %s%s (%s job%s)\n" (text ~o "state")
            (match field ~o "digest" with Some (Json.String d) -> " " ^ d | _ -> "")
            (text ~o "jobs")
            (if text ~o "jobs" = "1" then "" else "s")
        | None -> ());
        print_string (Snapshot.to_text snap)
      end;
      (match json with
      | Some path -> (
        (* a wfc.obs.v1 report (validated by wfc check-json): the daemon's
           uptime as the single scenario, with the server block appended *)
        match Report.to_json ~snapshot:snap [ Report.scenario "stats" uptime ] with
        | Json.Obj fields ->
          write_json_to path
            (Json.Obj (fields @ match server with Some s -> [ ("server", s) ] | None -> []))
        | _ -> assert false)
      | None -> ());
      0
  in
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:"Print Prometheus text exposition instead of the human table.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Live introspection of a running solvability daemon: version, uptime, in-flight \
          queries, queue depth, open connections, the task memo's size, the solver's state, then every \
          counter, stage/latency histogram and solver span, laid out as any subcommand's \
          $(b,--stats) prints them. $(b,--prometheus) prints text exposition instead; \
          $(b,--json) writes a wfc.obs.v1 report.")
    Term.(const run $ socket_arg $ prometheus $ Output.json_arg)

let store_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine output: one canonical JSON object on stdout instead of the table.")
  in
  let ls =
    (* Listing walks the tree and decodes each record; output order is
       sorted by path, deterministic whatever readdir would say. *)
    let run store_dir json =
      let st = Wfc_storage.Engine.open_store store_dir in
      let { Wfc_storage.Engine.records; skeletons } = Wfc_storage.Engine.ls st in
      if json then
        print_endline
          (Wfc_obs.Json.to_string
             (Wfc_obs.Json.Obj
                [
                  ("schema", Wfc_obs.Json.String "wfc.store.ls.v1");
                  ("store", Wfc_obs.Json.String store_dir);
                  ("count", Wfc_obs.Json.Int (List.length records));
                  ("skeletons", Wfc_obs.Json.Int skeletons);
                  ( "records",
                    Wfc_obs.Json.Arr
                      (List.map
                         (fun (rel, (r : Wfc_storage.Record.record)) ->
                           Wfc_obs.Json.Obj
                             [
                               ("rel", Wfc_obs.Json.String rel);
                               ("digest", Wfc_obs.Json.String r.digest);
                               ("model", Wfc_obs.Json.String r.model);
                               ("max_level", Wfc_obs.Json.Int r.max_level);
                               ("budget", Wfc_obs.Json.Int r.budget);
                               ("verdict", Wfc_obs.Json.String r.outcome.o_verdict);
                               ("level", Wfc_obs.Json.Int r.outcome.o_level);
                               ("created_at", Wfc_obs.Json.Float r.created_at);
                             ])
                         records) );
                ]))
      else begin
        List.iter
          (fun (rel, (r : Wfc_storage.Record.record)) ->
            Format.printf "%-60s %-11s level=%d %s@." rel r.outcome.o_verdict
              r.outcome.o_level r.model)
          records;
        Format.printf "%d record(s), %d skeleton(s) in %s@." (List.length records) skeletons
          store_dir
      end;
      0
    in
    Cmd.v
      (Cmd.info "ls"
         ~doc:
           "List the records of a verdict store: one walk of its directory tree, each \
            record decoded, sorted by path. Files that do not decode are left out; \
            $(b,wfc store verify) names them. $(b,--json) prints a wfc.store.ls.v1 \
            object for machine consumption. Flat pre-sharding and wfc.store.v1 stores \
            are not read; commit 26231c0 is the last that can convert one.")
      Term.(const run $ store_req_arg $ json_flag)
  in
  let verify =
    let run store_dir json =
      let st = Wfc_storage.Engine.open_store store_dir in
      let r = Wfc_storage.Engine.verify st in
      if json then
        print_endline
          (Wfc_obs.Json.to_string
             (Wfc_obs.Json.Obj
                [
                  ("schema", Wfc_obs.Json.String "wfc.store.verify.v1");
                  ("valid", Wfc_obs.Json.Int r.Wfc_storage.Engine.valid);
                  ( "corrupt",
                    Wfc_obs.Json.Arr
                      (List.map
                         (fun (n, e) ->
                           Wfc_obs.Json.Obj
                             [
                               ("path", Wfc_obs.Json.String n);
                               ("error", Wfc_obs.Json.String e);
                             ])
                         r.Wfc_storage.Engine.corrupt) );
                  ( "mismatched",
                    Wfc_obs.Json.Arr
                      (List.map
                         (fun n -> Wfc_obs.Json.String n)
                         r.Wfc_storage.Engine.mismatched) );
                  ("quarantined", Wfc_obs.Json.Int r.Wfc_storage.Engine.quarantined);
                  ("stray_tmp", Wfc_obs.Json.Int r.Wfc_storage.Engine.stray_tmp);
                ]))
      else begin
        Format.printf "valid: %d@." r.Wfc_storage.Engine.valid;
        List.iter
          (fun (name, e) -> Format.printf "corrupt: %s (%s)@." name e)
          r.Wfc_storage.Engine.corrupt;
        List.iter
          (fun name -> Format.printf "digest mismatch: %s@." name)
          r.Wfc_storage.Engine.mismatched;
        Format.printf "quarantined: %d@." r.Wfc_storage.Engine.quarantined;
        Format.printf "stray tmp files: %d@." r.Wfc_storage.Engine.stray_tmp
      end;
      if r.Wfc_storage.Engine.corrupt = [] && r.Wfc_storage.Engine.mismatched = [] then 0 else 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Check a verdict store: one walk of its directory tree, every record decoded \
            and checked against the path it is filed under. Exits non-zero if any \
            in-place record is corrupt or misfiled; quarantined and stray-temp files \
            are reported but do not fail (contained damage — clean with $(b,wfc store \
            gc)). Flat pre-sharding records are listed as mismatched and wfc.store.v1 \
            records as corrupt: neither is served; commit 26231c0 is the last that can \
            convert them.")
      Term.(const run $ store_req_arg $ json_flag)
  in
  let gc =
    let run store_dir =
      let st = Wfc_storage.Engine.open_store store_dir in
      let removed = ref 0 in
      Wfc_storage.Engine.gc st ~removed;
      Format.printf "removed %d quarantined/stray file(s)@." !removed;
      0
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Delete quarantined records and interrupted-write temp files from a store. \
            Records and skeletons are untouched.")
      Term.(const run $ store_req_arg)
  in
  let seed =
    let count =
      Arg.(
        value & opt int 1000
        & info [ "count" ] ~docv:"N" ~doc:"Number of synthetic records to write.")
    in
    let run store_dir count =
      let st = Wfc_storage.Engine.open_store store_dir in
      Wfc_storage.Engine.seed st ~count;
      Format.printf "seeded %d synthetic record(s) into %s@." count store_dir;
      0
    in
    Cmd.v
      (Cmd.info "seed"
         ~doc:
           "Populate a store with deterministic synthetic records (benchmark / CI scale \
            runs — not real verdicts).")
      Term.(const run $ store_req_arg $ count)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect and maintain verdict stores: sharded wfc.store.v2 records and a \
          skeletons keyspace, indexed by nothing but the directory tree. Flat \
          pre-sharding and wfc.store.v1 stores are not read; commit 26231c0 is the last \
          that can convert one.")
    [ ls; verify; gc; seed ]

(* ---------- models ---------- *)

let models_cmd =
  let run () =
    List.iter
      (fun (pattern, descr) -> Format.printf "%-16s %s@." pattern descr)
      Model.builtins;
    0
  in
  Cmd.v
    (Cmd.info "models"
       ~doc:
         "List the computation models $(b,--model) accepts: each is an affine restriction \
          of the IIS runs, decided over the same subdivided complexes. Solvability under \
          any model runs the plain canonical search engine first and the reduced engine on \
          the levels it leaves open — symmetry orbits are computed on the model's admitted \
          facet set, so a restriction that breaks a task symmetry simply yields fewer \
          orbits; $(b,--search-trace) on $(b,solve) runs the plain canonical engine alone.")
    Term.(const run $ const ())

(* ---------- converge ---------- *)

let converge_cmd =
  let run dim levels seed =
    let target = Sds.subdiv (Sds.standard ~dim ~levels) in
    match Convergence.prepare target with
    | None ->
      Format.printf "no chromatic map found@.";
      1
    | Some t ->
      Format.printf "CSASS over SDS^%d(s^%d): decision map at k=%d@." levels dim
        t.Convergence.level;
      let participating = List.init (dim + 1) (fun i -> i) in
      (match Convergence.run t ~participating (Runtime.random ~seed ()) with
      | Ok outputs ->
        List.iter
          (fun (p, w) ->
            Format.printf "  P%d -> vertex %d (carrier %s)@." p w
              (Simplex.to_string (t.Convergence.target.Subdiv.carrier w)))
          outputs;
        0
      | Error e ->
        Format.printf "  run failed: %s@." e;
        1)
  in
  Cmd.v
    (Cmd.info "converge"
       ~doc:"Chromatic simplex agreement over SDS^b(s^n), end to end (Theorem 5.1).")
    Term.(const run $ dim_arg $ levels_arg $ seed_arg)

(* ---------- approx ---------- *)

let approx_cmd =
  let run dim levels scheme =
    let target = Sds.subdiv (Sds.standard ~dim ~levels) in
    let scheme = match scheme with "bsd" -> `Bsd | _ -> `Sds in
    match Approximation.min_level ~scheme ~target () with
    | Some (k, phi) ->
      Format.printf "minimal k = %d; map is simplicial: %b@." k
        (Simplicial_map.is_simplicial phi);
      0
    | None ->
      Format.printf "no approximation found up to k = 6@.";
      1
  in
  let scheme =
    Arg.(
      value
      & opt (enum [ ("bsd", "bsd"); ("sds", "sds") ]) "bsd"
      & info [ "scheme" ] ~docv:"S" ~doc:"Source subdivision scheme: bsd or sds.")
  in
  Cmd.v
    (Cmd.info "approx"
       ~doc:"Carrier-preserving simplicial approximation onto SDS^b(s^n) (Lemma 5.3).")
    Term.(const run $ dim_arg $ levels_arg $ scheme)

(* ---------- bound ---------- *)

let bound_cmd =
  let run procs crashes =
    let r = Bounded.decision_bound ~crashes (fun () -> Protocols.is_renaming ~procs) in
    Format.printf
      "IS renaming, %d processes: %d executions explored, decision bound %d, max depth %d@."
      procs r.Bounded.runs r.Bounded.bound r.Bounded.depth;
    0
  in
  let crashes =
    Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"C" ~doc:"Also explore up to C crashes.")
  in
  Cmd.v
    (Cmd.info "bound"
       ~doc:"Materialize the execution tree and extract the decision bound (Lemma 3.1).")
    Term.(const run $ procs_arg $ crashes)

(* ---------- check-json ---------- *)

let check_json_cmd =
  let run file expect_verdict min_nodes scenario =
    let contents =
      if file = "-" then In_channel.input_all stdin
      else In_channel.with_open_bin file In_channel.input_all
    in
    let check_log () =
      if expect_verdict <> None || min_nodes <> None || scenario <> None then begin
        Format.eprintf "%s: --expect-verdict/--min-nodes/--scenario only apply to %s reports@."
          file Wfc_obs.Report.schema_version;
        1
      end
      else
        match Wfc_obs.Log.validate contents with
        | Ok n ->
          Format.printf "%s: valid %s log (%d event%s)@." file Wfc_obs.Log.schema_version n
            (if n = 1 then "" else "s");
          0
        | Error e ->
          Format.eprintf "%s: invalid log (%s)@." file e;
          1
    in
    (* An event log is JSONL: the whole file is not one JSON value, so the
       plain parse fails. If the FIRST line is a wfc.log.v1 event, validate
       the file line-wise; otherwise report the original parse error. *)
    let first_line_is_log () =
      match
        List.find_opt (fun l -> String.trim l <> "") (String.split_on_char '\n' contents)
      with
      | None -> false
      | Some line -> (
        match Wfc_obs.Json.parse line with
        | Error _ -> false
        | Ok j -> (
          match Wfc_obs.Json.member "schema" j with
          | Some (Wfc_obs.Json.String s) -> s = Wfc_obs.Log.schema_version
          | _ -> false))
    in
    match Wfc_obs.Json.parse contents with
    | Error e ->
      if first_line_is_log () then check_log ()
      else begin
        Format.eprintf "%s: not valid JSON (%s)@." file e;
        1
      end
    | Ok j -> (
      (* dispatch on the schema tag: one checker for every artifact we emit *)
      match Wfc_obs.Json.member "schema" j with
      | Some (Wfc_obs.Json.String s) when s = Wfc_obs.Report.schema_version -> (
        match
          Wfc_obs.Report.validate ?expect_verdict ?min_nodes ?scenario_name:scenario j
        with
        | Ok () ->
          Format.printf "%s: valid %s report@." file Wfc_obs.Report.schema_version;
          0
        | Error e ->
          Format.eprintf "%s: invalid report (%s)@." file e;
          1)
      | Some (Wfc_obs.Json.String s) when s = Trace_io.schema_version ->
        if expect_verdict <> None || min_nodes <> None || scenario <> None then begin
          Format.eprintf
            "%s: --expect-verdict/--min-nodes/--scenario only apply to %s reports@." file
            Wfc_obs.Report.schema_version;
          1
        end
        else (
          match Trace_io.validate j with
          | Ok () ->
            Format.printf "%s: valid %s trace@." file Trace_io.schema_version;
            0
          | Error e ->
            Format.eprintf "%s: invalid trace (%s)@." file e;
            1)
      | Some (Wfc_obs.Json.String s) when s = Wfc_storage.Record.schema_version ->
        if scenario <> None then begin
          Format.eprintf "%s: --scenario only applies to %s reports@." file
            Wfc_obs.Report.schema_version;
          1
        end
        else (
          match Wfc_storage.Record.record_of_json j with
          | Error e ->
            Format.eprintf "%s: invalid store record (%s)@." file e;
            1
          | Ok r ->
            let o = r.Wfc_storage.Record.outcome in
            let verdict_ok =
              match expect_verdict with
              | None -> true
              | Some v -> v = o.Solvability.o_verdict
            in
            let nodes_ok =
              match min_nodes with None -> true | Some n -> o.Solvability.o_nodes >= n
            in
            if not verdict_ok then begin
              Format.eprintf "%s: verdict is %S, expected %S@." file
                o.Solvability.o_verdict
                (Option.value ~default:"" expect_verdict);
              1
            end
            else if not nodes_ok then begin
              Format.eprintf "%s: %d nodes, expected at least %d@." file
                o.Solvability.o_nodes
                (Option.value ~default:0 min_nodes);
              1
            end
            else begin
              Format.printf "%s: valid %s record@." file s;
              0
            end)
      | Some (Wfc_obs.Json.String s) when s = Wfc_obs.Log.schema_version ->
        (* a one-event log file IS a single JSON value; same line-wise check *)
        check_log ()
      | Some (Wfc_obs.Json.String s) ->
        Format.eprintf "%s: unknown schema %S@." file s;
        exit_unknown_schema
      | Some _ | None ->
        Format.eprintf "%s: missing \"schema\" tag@." file;
        exit_unknown_schema)
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"File to check.")
  in
  let expect_verdict =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-verdict" ] ~docv:"V" ~doc:"Require a scenario with this verdict.")
  in
  let min_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "min-nodes" ] ~docv:"N" ~doc:"Require a scenario with at least $(docv) nodes.")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Apply the constraints to this scenario only.")
  in
  Cmd.v
    (Cmd.info "check-json"
       ~doc:
         "Validate a JSON artifact by its schema tag: wfc.obs.v1 reports, wfc.trace.v1 \
          traces, wfc.store.v2 verdict records, and wfc.log.v1 event logs \
          (JSONL: validated line by line). Exits 4 on an unknown schema.")
    Term.(const run $ file $ expect_verdict $ min_nodes $ scenario)

let main_cmd =
  let doc = "wait-free computations via iterated immediate snapshots (Borowsky-Gafni, PODC'97)" in
  Cmd.group
    (Cmd.info "wfc" ~version:"1.0.0" ~doc)
    [
      sds_cmd;
      homology_cmd;
      pc_cmd;
      emulate_cmd;
      trace_cmd;
      replay_cmd;
      solve_cmd;
      serve_cmd;
      query_cmd;
      stats_cmd;
      store_cmd;
      models_cmd;
      converge_cmd;
      approx_cmd;
      bound_cmd;
      simulate_cmd;
      check_json_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
