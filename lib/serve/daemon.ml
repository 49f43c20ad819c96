open Wfc_core

let version = "1.0.0"

type config = {
  socket : string;
  store_dir : string;
  queue_capacity : int;
  on_ready : (unit -> unit) option;
  gate : (string -> unit) option;
  log : string option;
  log_level : Wfc_obs.Log.level;
  slow_ms : float option;
}

let config ?(queue_capacity = 64) ?log ?(log_level = Wfc_obs.Log.Info) ?slow_ms ~socket
    ~store_dir () =
  {
    socket;
    store_dir;
    queue_capacity;
    on_ready = None;
    gate = None;
    log;
    log_level;
    slow_ms;
  }

let c_requests = Wfc_obs.Metrics.counter "serve.requests"

let c_hits = Wfc_obs.Metrics.counter "serve.hits"

let c_misses = Wfc_obs.Metrics.counter "serve.misses"

let c_coalesced = Wfc_obs.Metrics.counter "serve.coalesced"

let c_shed = Wfc_obs.Metrics.counter "serve.shed"

let c_errors = Wfc_obs.Metrics.counter "serve.errors"

let c_slow = Wfc_obs.Metrics.counter "serve.slow"

let c_memo_hits = Wfc_obs.Metrics.counter "serve.task_memo.hits"

let c_memo_misses = Wfc_obs.Metrics.counter "serve.task_memo.misses"

let h_latency = Wfc_obs.Metrics.histogram "serve.latency.seconds"

let h_depth = Wfc_obs.Metrics.histogram "serve.queue.depth"

(* Stage histograms: the request lifecycle cut where it actually spends
   time. decode = frame JSON -> typed request; task = model parse plus the
   task-memo lookup, and on a memo miss the task build (its digest
   included); admission = the store-lookup / enqueue decision under the
   state mutex; queue_wait = admitted -> picked by the solver; solve = the
   search itself; store_put = persisting the fresh verdict; encode =
   response -> socket bytes. *)
let h_stage_decode = Wfc_obs.Metrics.histogram "serve.stage.decode.seconds"

let h_stage_task = Wfc_obs.Metrics.histogram "serve.stage.task.seconds"

let h_stage_admission = Wfc_obs.Metrics.histogram "serve.stage.admission.seconds"

let h_stage_queue_wait = Wfc_obs.Metrics.histogram "serve.stage.queue_wait.seconds"

let h_stage_solve = Wfc_obs.Metrics.histogram "serve.stage.solve.seconds"

let h_stage_store_put = Wfc_obs.Metrics.histogram "serve.stage.store_put.seconds"

let h_stage_encode = Wfc_obs.Metrics.histogram "serve.stage.encode.seconds"

(* Latency split by how the answer was produced and by what model family
   was asked: a warm store-hit population and a cold search population do
   not belong in one histogram, and per-family curves show which
   restriction is expensive. The family, not the full model name, keys the
   histogram: a name built from a client's parameter would grow the
   registry (and every [stats] reply) with each new value asked. Source
   handles are pre-resolved; family handles go through the registry's
   get-or-create (mutexed, cheap against a solve). *)
let h_latency_store = Wfc_obs.Metrics.histogram "serve.latency.store.seconds"

let h_latency_computed = Wfc_obs.Metrics.histogram "serve.latency.computed.seconds"

let h_latency_coalesced = Wfc_obs.Metrics.histogram "serve.latency.coalesced.seconds"

let h_latency_of_source = function
  | Wire.From_store -> h_latency_store
  | Wire.Computed -> h_latency_computed
  | Wire.Coalesced -> h_latency_coalesced

let h_latency_of_model model =
  Wfc_obs.Metrics.histogram
    ("serve.latency.model." ^ Wfc_tasks.Model.family model ^ ".seconds")

(* Solver-side stage costs of one computation; the handler adds its own
   wait into [total_s] when it builds the wire timing. *)
type stages = { queue_wait_s : float; solve_s : float; store_s : float }

let no_stages = { queue_wait_s = 0.; solve_s = 0.; store_s = 0. }

(* One admitted question. A job is in [inflight] from admission until its
   result is published, and in [queue] only until the solver pops it —
   coalescing keys on [inflight], so a query arriving while its twin is
   {e being solved} still attaches instead of recomputing. [j_task] carries
   its digest, so neither the solver nor the record renders it again. *)
type job = {
  j_spec : Wire.spec;
  j_task : Wfc_tasks.Task.t;
  j_model : Wfc_tasks.Model.t;  (** parsed at admission; unknown names never enqueue *)
  j_req_id : string;  (** the admitting request's id, for solver-side log lines *)
  j_enqueued_at : float;
  mutable j_result : (Wfc_storage.Record.record * stages, string) result option;
}

let job_digest job = Wfc_tasks.Task.digest job.j_task

(* Solver introspection for [wfc stats]: what the solver thread is doing
   right now, mutated under the state mutex. *)
type solver_info = {
  mutable s_state : [ `Idle | `Solving of string ];
  mutable s_jobs : int;  (** computations finished *)
}

(* The scheduler's pending work, grouped by task digest for fairness: the
   [rotation] round-robins over digests that have pending jobs, so a burst
   of levels on one digest cannot starve a cold query on another. A digest
   appears in [rotation] exactly once while its [by_digest] queue is
   non-empty. [npending] counts admitted-not-yet-solving jobs (the shed
   bound); jobs being solved are tracked only through [inflight]. *)
type state = {
  cfg : config;
  store : Wfc_storage.Engine.t;
  tasks : Wfc_tasks.Task.t Wfc_storage.Lru.t;  (** the task memo, under [m] *)
  started_at : float;
  log : Wfc_obs.Log.t option;
  m : Mutex.t;
  work_cv : Condition.t;  (** signalled: work arrived or shutdown began *)
  done_cv : Condition.t;  (** broadcast: some job published its result *)
  by_digest : (string, job Queue.t) Hashtbl.t;
  rotation : string Queue.t;
  mutable npending : int;
  inflight : (string, job) Hashtbl.t;
  solver : solver_info;
  req_seq : int Atomic.t;  (** ids for requests that carry no [req_id] *)
  stopping : bool Atomic.t;
}

let key_of ~digest ~model ~max_level = Printf.sprintf "%s:%s:L%d" digest model max_level

(* Built tasks, keyed by exactly what [Instances.by_name] reads: the
   catalogue has 26 instances, so 64 keeps every one a client asks for and
   still bounds a client that sweeps parameters. A hit answers from here
   with no task build; only the digest and, for a queued miss, the solver
   thread read a memoized task. *)
let task_memo_capacity = 64

let memo_key (spec : Wire.spec) =
  Printf.sprintf "%s/%d/%d" spec.Wire.task spec.Wire.procs spec.Wire.param

let locked st f =
  Mutex.lock st.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.m) f

let log_event st level name fields =
  match st.log with None -> () | Some l -> Wfc_obs.Log.event l level name fields

let spec_fields (spec : Wire.spec) =
  let open Wfc_obs.Json in
  [
    ("task", String spec.Wire.task);
    ("procs", Int spec.Wire.procs);
    ("param", Int spec.Wire.param);
    ("max_level", Int spec.Wire.max_level);
    ("model", String spec.Wire.model);
    ("symmetry", Bool spec.Wire.symmetry);
    ("collapse", Bool spec.Wire.collapse);
  ]

(* ---- the solve scheduler ---- *)

let enqueue_job st job =
  let digest = job_digest job in
  (match Hashtbl.find_opt st.by_digest digest with
  | Some q -> Queue.push job q
  | None ->
    let q = Queue.create () in
    Queue.push job q;
    Hashtbl.replace st.by_digest digest q;
    Queue.push digest st.rotation);
  st.npending <- st.npending + 1

(* Pop the next job round-robin over digests; caller holds [st.m] and has
   checked [npending > 0]. The digest goes to the back of the rotation if
   it still has pending jobs, and leaves the table otherwise. *)
let dequeue_job st =
  let digest = Queue.pop st.rotation in
  let q = Hashtbl.find st.by_digest digest in
  let job = Queue.pop q in
  if Queue.is_empty q then Hashtbl.remove st.by_digest digest
  else Queue.push digest st.rotation;
  st.npending <- st.npending - 1;
  (* depth is sampled on BOTH edges of the queue: enqueue alone records
     only arrival bursts and a histogram that never sees the drain *)
  Wfc_obs.Metrics.observe h_depth (float_of_int st.npending);
  job

(* [Engine.answer] looks the question up again before solving: an inline
   [wfc query --store] process sharing the directory may have filed the
   verdict while this job sat in the queue. A map that fails its check
   comes back as an [Error], which the solver loop logs as [solve.error]:
   nothing was filed. *)
let compute st (job : job) ~queue_wait_s =
  (match st.cfg.gate with Some g -> g (job_digest job) | None -> ());
  let opts =
    Solvability.options ~model:job.j_model ~symmetry:job.j_spec.Wire.symmetry
      ~collapse:job.j_spec.Wire.collapse ()
  in
  match
    Wfc_storage.Engine.answer (Some st.store) ~opts ~spec:(Wire.spec_to_string job.j_spec)
      ~max_level:job.j_spec.Wire.max_level job.j_task
  with
  | Ok (Wfc_storage.Engine.Stored r) -> Ok (r, { no_stages with queue_wait_s })
  | Ok (Wfc_storage.Engine.Computed { record; solve_s; put_s; _ }) ->
    Wfc_obs.Metrics.observe h_stage_solve solve_s;
    if put_s > 0. then Wfc_obs.Metrics.observe h_stage_store_put put_s;
    Ok (record, { queue_wait_s; solve_s; store_s = put_s })
  | Error e -> Error (Wfc_storage.Engine.error_to_string e)

(* The one solver thread loops here. On shutdown it keeps draining until
   no pending job is left — every admitted question gets its answer — and
   only then exits. *)
let solver_loop st =
  let info = st.solver in
  let rec next () =
    let job =
      locked st (fun () ->
          while st.npending = 0 && not (Atomic.get st.stopping) do
            Condition.wait st.work_cv st.m
          done;
          if st.npending = 0 then None
          else begin
            let job = dequeue_job st in
            info.s_state <- `Solving (job_digest job);
            Some job
          end)
    in
    match job with
    | None -> () (* stopping and drained *)
    | Some job ->
      let queue_wait_s =
        max 0. (Wfc_obs.Metrics.now_s () -. job.j_enqueued_at)
      in
      Wfc_obs.Metrics.observe h_stage_queue_wait queue_wait_s;
      let result =
        try compute st job ~queue_wait_s
        with e -> Error (Printf.sprintf "solver failed: %s" (Printexc.to_string e))
      in
      (match result with
      | Error e ->
        Wfc_obs.Metrics.incr c_errors;
        log_event st Wfc_obs.Log.Error "solve.error"
          (("req_id", Wfc_obs.Json.String job.j_req_id)
          :: ("message", Wfc_obs.Json.String e)
          :: spec_fields job.j_spec)
      | Ok _ -> ());
      locked st (fun () ->
          job.j_result <- Some result;
          info.s_state <- `Idle;
          info.s_jobs <- info.s_jobs + 1;
          Hashtbl.remove st.inflight
            (key_of ~digest:(job_digest job) ~model:job.j_spec.Wire.model
               ~max_level:job.j_spec.Wire.max_level);
          Condition.broadcast st.done_cv);
      next ()
  in
  next ()

(* ---- per-connection handler ---- *)

(* The build runs outside the lock: two handlers that miss on one key both
   build and both put, which is harmless because the two tasks have the
   same digest. A build that raises is never memoized, so a bad question
   costs its build every time and cannot evict a good task. *)
let memo_task st (spec : Wire.spec) =
  let key = memo_key spec in
  match locked st (fun () -> Wfc_storage.Lru.find st.tasks key) with
  | Some task ->
    Wfc_obs.Metrics.incr c_memo_hits;
    task
  | None ->
    Wfc_obs.Metrics.incr c_memo_misses;
    let task =
      Wfc_tasks.Instances.by_name ~name:spec.Wire.task ~procs:spec.Wire.procs
        ~param:spec.Wire.param
    in
    locked st (fun () -> Wfc_storage.Lru.put st.tasks key task);
    task

let fresh_req_id st =
  Printf.sprintf "wfc-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add st.req_seq 1)

(* Store lookups happen under the state mutex: the miss -> enqueue decision
   must be atomic against a twin handler or the store would be raced into
   double computation. Record files are a few KiB, so the hold is short. *)
let handle_query st ~req_id (spec : Wire.spec) =
  Wfc_obs.Metrics.incr c_requests;
  let t0 = Wfc_obs.Metrics.now_s () in
  let failed spec msg =
    Wfc_obs.Metrics.incr c_errors;
    Wfc_obs.Metrics.observe h_latency (Wfc_obs.Metrics.now_s () -. t0);
    log_event st Wfc_obs.Log.Error "query.error"
      (("req_id", Wfc_obs.Json.String req_id)
      :: ("message", Wfc_obs.Json.String msg)
      :: spec_fields spec);
    Wire.Failed msg
  in
  (* Every answered verdict funnels through here: one place observes the
     latency histograms, writes the query log line, and flags outliers. It
     logs the spec it is given: the canonical one once the model parses. *)
  let served spec ~model ~source ~stages (record : Wfc_storage.Record.record) =
    let total_s = Wfc_obs.Metrics.now_s () -. t0 in
    Wfc_obs.Metrics.observe h_latency total_s;
    Wfc_obs.Metrics.observe (h_latency_of_source source) total_s;
    Wfc_obs.Metrics.observe (h_latency_of_model model) total_s;
    let timing =
      {
        Wire.queue_wait_s = stages.queue_wait_s;
        solve_s = stages.solve_s;
        store_s = stages.store_s;
        total_s;
      }
    in
    let o = record.Wfc_storage.Record.outcome in
    let outcome_fields =
      let open Wfc_obs.Json in
      [
        ("source", String (Wire.source_name source));
        ("verdict", String o.Solvability.o_verdict);
        ("level", Int o.Solvability.o_level);
        ("nodes", Int o.Solvability.o_nodes);
        ("backtracks", Int o.Solvability.o_backtracks);
        ("prunes", Int o.Solvability.o_prunes);
      ]
    in
    let timing_fields =
      let open Wfc_obs.Json in
      [
        ("queue_wait_s", Float timing.Wire.queue_wait_s);
        ("solve_s", Float timing.Wire.solve_s);
        ("store_s", Float timing.Wire.store_s);
        ("total_s", Float timing.Wire.total_s);
      ]
    in
    log_event st Wfc_obs.Log.Info "query"
      (("req_id", Wfc_obs.Json.String req_id)
      :: (spec_fields spec @ outcome_fields @ timing_fields));
    (match st.cfg.slow_ms with
    | Some threshold when total_s *. 1000. >= threshold ->
      Wfc_obs.Metrics.incr c_slow;
      (* the slow-query line repeats the full context: an outlier must be
         diagnosable from this one line, grep-free *)
      log_event st Wfc_obs.Log.Warn "slow_query"
        (("req_id", Wfc_obs.Json.String req_id)
        :: ("threshold_ms", Wfc_obs.Json.Float threshold)
        :: (spec_fields spec @ outcome_fields @ timing_fields))
    | _ -> ());
    Wire.Verdict { source; record; req_id = Some req_id; timing = Some timing }
  in
  let task =
    Wfc_obs.Metrics.time h_stage_task (fun () ->
        match Wfc_tasks.Model.of_string spec.Wire.model with
        | Error msg -> Error msg
        | Ok model -> (
          match memo_task st spec with
          | exception Invalid_argument msg -> Error msg
          | task -> Ok (model, task)))
  in
  match task with
  | Error msg -> failed spec msg
  | Ok (model, task) -> (
    (* the record files under the model's canonical name *)
    let spec = { spec with Wire.model = Wfc_tasks.Model.to_string model } in
    let digest = Wfc_tasks.Task.digest task in
    let key = key_of ~digest ~model:spec.Wire.model ~max_level:spec.Wire.max_level in
    let wait_for job =
      let rec poll () =
        match job.j_result with
        | Some r -> r
        | None ->
          Condition.wait st.done_cv st.m;
          poll ()
      in
      locked st poll
    in
    let t_admission = Wfc_obs.Metrics.now_s () in
    let decision =
      locked st (fun () ->
          if Atomic.get st.stopping then `Refuse
          else
            match Hashtbl.find_opt st.inflight key with
            | Some job ->
              Wfc_obs.Metrics.incr c_coalesced;
              `Join job
            | None -> (
              let t_find = Wfc_obs.Metrics.now_s () in
              match
                Wfc_storage.Engine.find st.store ~digest ~model:spec.Wire.model
                  ~max_level:spec.Wire.max_level ~budget:Solvability.default_budget
              with
              | Some r ->
                Wfc_obs.Metrics.incr c_hits;
                `Hit (r, Wfc_obs.Metrics.now_s () -. t_find)
              | None ->
                if st.npending >= st.cfg.queue_capacity then begin
                  Wfc_obs.Metrics.incr c_shed;
                  `Shed
                end
                else begin
                  Wfc_obs.Metrics.incr c_misses;
                  let job =
                    {
                      j_spec = spec;
                      j_task = task;
                      j_model = model;
                      j_req_id = req_id;
                      j_enqueued_at = Wfc_obs.Metrics.now_s ();
                      j_result = None;
                    }
                  in
                  Hashtbl.replace st.inflight key job;
                  enqueue_job st job;
                  Wfc_obs.Metrics.observe h_depth (float_of_int st.npending);
                  Condition.signal st.work_cv;
                  `Own job
                end))
    in
    Wfc_obs.Metrics.observe h_stage_admission
      (Wfc_obs.Metrics.now_s () -. t_admission);
    match decision with
    | `Refuse -> failed spec "daemon is shutting down"
    | `Hit (r, find_s) ->
      served spec ~model ~source:Wire.From_store ~stages:{ no_stages with store_s = find_s } r
    | `Shed ->
      log_event st Wfc_obs.Log.Warn "shed"
        (("req_id", Wfc_obs.Json.String req_id) :: spec_fields spec);
      Wfc_obs.Metrics.observe h_latency (Wfc_obs.Metrics.now_s () -. t0);
      Wire.Shed
    | `Join job -> (
      match wait_for job with
      | Ok (r, stages) -> served spec ~model ~source:Wire.Coalesced ~stages r
      | Error e -> failed spec e)
    | `Own job -> (
      match wait_for job with
      | Ok (r, stages) -> served spec ~model ~source:Wire.Computed ~stages r
      | Error e -> failed spec e))

(* ---- introspection ---- *)

let uptime_s st = Wfc_obs.Metrics.now_s () -. st.started_at

let server_json st =
  let open Wfc_obs.Json in
  let inflight, depth, memo_size, solver =
    locked st (fun () ->
        ( Hashtbl.length st.inflight,
          st.npending,
          Wfc_storage.Lru.size st.tasks,
          Obj
            ((match st.solver.s_state with
             | `Idle -> [ ("state", String "idle") ]
             | `Solving digest -> [ ("state", String "solving"); ("digest", String digest) ])
            @ [ ("jobs", Int st.solver.s_jobs) ]) ))
  in
  Obj
    [
      ("version", String version);
      ("uptime_s", Float (uptime_s st));
      ("inflight", Int inflight);
      ("queue_depth", Int depth);
      ("queue_capacity", Int st.cfg.queue_capacity);
      ("task_memo", Obj [ ("size", Int memo_size); ("capacity", Int task_memo_capacity) ]);
      (* the solver thread owns these tables: the counts are read without
         its cooperation, so they may lag a solve in progress *)
      ( "solver_memo",
        Obj (List.map (fun (name, n) -> (name, Int n)) (Solvability.memo_sizes ())) );
      ("solver", solver);
    ]

let handle_connection st fd =
  let stop_requested = ref false in
  (try
     let rec loop () =
       match Wire.read_frame fd with
       | Error _ -> ()
       | Ok j ->
         let t_decode = Wfc_obs.Metrics.now_s () in
         let parsed = Wire.request_of_json j in
         Wfc_obs.Metrics.observe h_stage_decode
           (Wfc_obs.Metrics.now_s () -. t_decode);
         let resp =
           match parsed with
           | Error e ->
             Wfc_obs.Metrics.incr c_errors;
             log_event st Wfc_obs.Log.Error "request.error"
               [ ("message", Wfc_obs.Json.String e) ];
             Wire.Failed e
           | Ok Wire.Ping ->
             log_event st Wfc_obs.Log.Debug "ping" [];
             Wire.Pong { version = Some version; uptime_s = Some (uptime_s st) }
           | Ok Wire.Stats ->
             log_event st Wfc_obs.Log.Debug "stats" [];
             Wire.Metrics
               {
                 metrics = Wfc_obs.Snapshot.to_json (Wfc_obs.Snapshot.take ());
                 server = Some (server_json st);
               }
           | Ok Wire.Shutdown ->
             stop_requested := true;
             log_event st Wfc_obs.Log.Info "shutdown.request" [];
             Wire.Bye
           | Ok (Wire.Query { spec; req_id }) ->
             (* a pre-telemetry client carries no id; assign one so every
                log line and response of this request still correlates *)
             let req_id =
               match req_id with Some id -> id | None -> fresh_req_id st
             in
             handle_query st ~req_id spec
         in
         let t_encode = Wfc_obs.Metrics.now_s () in
         Wire.write_frame fd (Wire.response_to_json resp);
         Wfc_obs.Metrics.observe h_stage_encode
           (Wfc_obs.Metrics.now_s () -. t_encode);
         if not !stop_requested then loop ()
     in
     loop ()
   with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if !stop_requested then begin
    Atomic.set st.stopping true;
    locked st (fun () -> Condition.broadcast st.work_cv)
  end

(* ---- socket lifecycle ---- *)

(* A stale socket file (previous daemon SIGKILLed) is replaced; a live one
   is refused — two daemons would race the same store paths' tmp files. *)
let bind_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then failwith (Printf.sprintf "a daemon is already serving on %s" path);
    (try Sys.remove path with Sys_error _ -> ())
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 64;
  fd

let run cfg =
  (* a client vanishing mid-response must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let log = Option.map (Wfc_obs.Log.open_log ~level:cfg.log_level) cfg.log in
  let store = Wfc_storage.Engine.open_store cfg.store_dir in
  let st =
    {
      cfg;
      store;
      tasks = Wfc_storage.Lru.create task_memo_capacity;
      started_at = Wfc_obs.Metrics.now_s ();
      log;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      by_digest = Hashtbl.create 64;
      rotation = Queue.create ();
      npending = 0;
      inflight = Hashtbl.create 64;
      solver = { s_state = `Idle; s_jobs = 0 };
      req_seq = Atomic.make 0;
      stopping = Atomic.make false;
    }
  in
  let listen_fd = bind_socket cfg.socket in
  log_event st Wfc_obs.Log.Info "serve.start"
    [
      ("socket", Wfc_obs.Json.String cfg.socket);
      ("store", Wfc_obs.Json.String cfg.store_dir);
      ("queue_capacity", Wfc_obs.Json.Int cfg.queue_capacity);
      ("version", Wfc_obs.Json.String version);
    ];
  let initiate_stop _ = Atomic.set st.stopping true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle initiate_stop) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle initiate_stop) in
  let solver = Thread.create solver_loop st in
  (match cfg.on_ready with Some f -> f () | None -> ());
  (* Accept with a select timeout so a signal- or request-initiated stop is
     noticed within a tick even when no connection ever arrives. *)
  let rec accept_loop () =
    if Atomic.get st.stopping then ()
    else begin
      (match Unix.select [ listen_fd ] [] [] 0.2 with
      | [ _ ], _, _ -> (
        match Unix.accept listen_fd with
        | client, _ -> ignore (Thread.create (fun () -> handle_connection st client) ())
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* stopping: wake and join the solver — it drains admitted work, finishes
     the job it is computing, and only then exits, so no admitted question
     is ever abandoned mid-shutdown *)
  locked st (fun () -> Condition.broadcast st.work_cv);
  Thread.join solver;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove cfg.socket with Sys_error _ -> ());
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  let v name = Wfc_obs.Metrics.value (Wfc_obs.Metrics.counter name) in
  log_event st Wfc_obs.Log.Info "serve.stop"
    [
      ("uptime_s", Wfc_obs.Json.Float (uptime_s st));
      ("requests", Wfc_obs.Json.Int (v "serve.requests"));
      ("hits", Wfc_obs.Json.Int (v "serve.hits"));
      ("computed", Wfc_obs.Json.Int (v "serve.misses"));
      ("coalesced", Wfc_obs.Json.Int (v "serve.coalesced"));
      ("shed", Wfc_obs.Json.Int (v "serve.shed"));
      ("errors", Wfc_obs.Json.Int (v "serve.errors"));
    ];
  (match st.log with Some l -> Wfc_obs.Log.close l | None -> ());
  Printf.eprintf
    "wfc serve: %d request(s) — %d hit(s), %d computed, %d coalesced, %d shed, %d error(s)\n%!"
    (v "serve.requests") (v "serve.hits") (v "serve.misses") (v "serve.coalesced")
    (v "serve.shed") (v "serve.errors")
