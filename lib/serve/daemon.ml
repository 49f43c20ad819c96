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
  max_connections : int;
  read_timeout_s : float;
}

(* Built tasks, keyed by exactly what [Instances.by_name] reads: the
   catalogue has 26 instances, so 64 keeps every one a client asks for and
   still bounds a client that sweeps parameters. A hit answers from here
   with no task build; only the digest and, for a queued miss, the solver
   thread read a memoized task. *)
let task_memo_capacity = 64

(* Connections open at once. At the cap the loop stops accepting, so
   further connects wait in the listen backlog. It is not derived from
   [queue_capacity], which may be 0 while connections must still be
   served. *)
let max_connections = 128

(* How long a connection may sit without a request byte arriving or a
   byte of its answer leaving before it is dropped. Without it,
   [max_connections] silent connections would hold the daemon shut for
   good. A connection waiting on the solver has no deadline, so this never
   bounds a solve. *)
let read_timeout_s = 10.

(* [Unix.select] fails with [EINVAL] on a descriptor at or above this. *)
let fd_setsize = 1024

let config ?(queue_capacity = 64) ?log ?(log_level = Wfc_obs.Log.Info) ?slow_ms
    ?(max_connections = max_connections) ?(read_timeout_s = read_timeout_s) ~socket ~store_dir ()
    =
  if max_connections < 1 then invalid_arg "Daemon.config: max_connections must be at least 1";
  {
    socket;
    store_dir;
    queue_capacity;
    on_ready = None;
    gate = None;
    log;
    log_level;
    slow_ms;
    max_connections;
    read_timeout_s;
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

let c_accepted = Wfc_obs.Metrics.counter "serve.connections.accepted"

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

(* Solver-side stage costs of one computation; the I/O loop adds its own
   wait into [total_s] when it builds the wire timing. *)
type stages = { queue_wait_s : float; solve_s : float; store_s : float }

let no_stages = { queue_wait_s = 0.; solve_s = 0.; store_s = 0. }

(* A client connection, owned by the I/O loop. It is reading (selected
   for reading, under its idle deadline), waiting (a query of its waits on
   the solver: not selected, no deadline) or writing (its answer is partly
   written: selected for writing, under its idle deadline). *)
type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable out : Bytes.t;  (** the answer being written, from [out_off] on *)
  mutable out_off : int;
  mutable waiting : bool;
  mutable closed : bool;
  mutable idle_until : float;
}

(* One admitted question. A job is in [inflight] from admission until its
   result is published, and in [queue] only until the solver pops it —
   coalescing keys on [inflight], so a query arriving while its twin is
   {e being solved} still attaches instead of recomputing. [j_task] carries
   its digest, so neither the solver nor the record renders it again.
   [j_waiters] are the connections that asked, each with how to answer it;
   the I/O loop answers them once it takes the job off [completed]. They
   are added under [st.m] while the job is in [inflight], so none is added
   after the result is published. *)
type job = {
  j_spec : Wire.spec;
  j_task : Wfc_tasks.Task.t;
  j_model : Wfc_tasks.Model.t;  (** parsed at admission; unknown names never enqueue *)
  j_req_id : string;  (** the admitting request's id, for solver-side log lines *)
  j_enqueued_at : float;
  mutable j_result : (Wfc_storage.Record.record * stages, string) result option;
  mutable j_waiters :
    (conn * ((Wfc_storage.Record.record * stages, string) result -> Wire.response)) list;
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
  tasks : Wfc_tasks.Task.t Wfc_storage.Lru.t;  (** the task memo, the I/O loop's alone *)
  started_at : float;
  log : Wfc_obs.Log.t option;
  m : Mutex.t;
  work_cv : Condition.t;  (** signalled: work arrived or shutdown began *)
  completed : job Queue.t;  (** published by the solver, not yet answered *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;  (** the solver writes a byte here per published job *)
  by_digest : (string, job Queue.t) Hashtbl.t;
  rotation : string Queue.t;
  mutable npending : int;
  inflight : (string, job) Hashtbl.t;
  solver : solver_info;
  req_seq : int Atomic.t;  (** ids for requests that carry no [req_id] *)
  stopping : bool Atomic.t;
  mutable listen : Unix.file_descr option;  (** [None] once stopping *)
  conns : (Unix.file_descr, conn) Hashtbl.t;  (** the I/O loop's alone, as is [listen] *)
}

let key_of ~digest ~model ~max_level = Printf.sprintf "%s:%s:L%d" digest model max_level

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
          Queue.push job st.completed);
      (* a full pipe already holds a wake-up *)
      (try ignore (Unix.single_write_substring st.wake_w "x" 0 1)
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      next ()
  in
  next ()

(* ---- answering a request ---- *)

(* A build that raises is never memoized, so a bad question costs its
   build every time and cannot evict a good task. *)
let memo_task st (spec : Wire.spec) =
  let key = memo_key spec in
  match Wfc_storage.Lru.find st.tasks key with
  | Some task ->
    Wfc_obs.Metrics.incr c_memo_hits;
    task
  | None ->
    Wfc_obs.Metrics.incr c_memo_misses;
    let task =
      Wfc_tasks.Instances.by_name ~name:spec.Wire.task ~procs:spec.Wire.procs
        ~param:spec.Wire.param
    in
    Wfc_storage.Lru.put st.tasks key task;
    task

let fresh_req_id st =
  Printf.sprintf "wfc-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add st.req_seq 1)

(* The answer to [conn]'s query, or [None] once [conn] waits on a job:
   the I/O loop answers it when the job completes. Store lookups happen
   under the state mutex: the miss -> enqueue decision must be atomic
   against the solver publishing the twin job, or the store would be raced
   into double computation. Record files are a few KiB, so the hold is
   short. *)
let handle_query st ~req_id ~conn (spec : Wire.spec) =
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
  | Error msg -> Some (failed spec msg)
  | Ok (model, task) -> (
    (* the record files under the model's canonical name *)
    let spec = { spec with Wire.model = Wfc_tasks.Model.to_string model } in
    let digest = Wfc_tasks.Task.digest task in
    let key = key_of ~digest ~model:spec.Wire.model ~max_level:spec.Wire.max_level in
    let await source job =
      job.j_waiters <-
        ( conn,
          function
          | Ok (r, stages) -> served spec ~model ~source ~stages r
          | Error e -> failed spec e )
        :: job.j_waiters
    in
    let t_admission = Wfc_obs.Metrics.now_s () in
    let decision =
      locked st (fun () ->
          if Atomic.get st.stopping then `Refuse
          else
            match Hashtbl.find_opt st.inflight key with
            | Some job ->
              Wfc_obs.Metrics.incr c_coalesced;
              await Wire.Coalesced job;
              `Wait
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
                      j_waiters = [];
                    }
                  in
                  await Wire.Computed job;
                  Hashtbl.replace st.inflight key job;
                  enqueue_job st job;
                  Wfc_obs.Metrics.observe h_depth (float_of_int st.npending);
                  Condition.signal st.work_cv;
                  `Wait
                end))
    in
    Wfc_obs.Metrics.observe h_stage_admission
      (Wfc_obs.Metrics.now_s () -. t_admission);
    match decision with
    | `Refuse -> Some (failed spec "daemon is shutting down")
    | `Hit (r, find_s) ->
      Some
        (served spec ~model ~source:Wire.From_store ~stages:{ no_stages with store_s = find_s } r)
    | `Shed ->
      log_event st Wfc_obs.Log.Warn "shed"
        (("req_id", Wfc_obs.Json.String req_id) :: spec_fields spec);
      Wfc_obs.Metrics.observe h_latency (Wfc_obs.Metrics.now_s () -. t0);
      Some Wire.Shed
    | `Wait -> None)

(* ---- introspection ---- *)

let uptime_s st = Wfc_obs.Metrics.now_s () -. st.started_at

let server_json st =
  let open Wfc_obs.Json in
  let inflight, depth, solver =
    locked st (fun () ->
        ( Hashtbl.length st.inflight,
          st.npending,
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
      ( "connections",
        Obj
          [ ("open", Int (Hashtbl.length st.conns)); ("capacity", Int st.cfg.max_connections) ] );
      ( "task_memo",
        Obj
          [ ("size", Int (Wfc_storage.Lru.size st.tasks)); ("capacity", Int task_memo_capacity) ]
      );
      (* the solver thread owns these tables: the counts are read without
         its cooperation, so they may lag a solve in progress *)
      ( "solver_memo",
        Obj (List.map (fun (name, n) -> (name, Int n)) (Solvability.memo_sizes ())) );
      ("solver", solver);
    ]

(* Closes and unlinks the listening socket, so a connect from now on is
   refused instead of left in the backlog, and wakes the solver to drain. *)
let stop_listening st =
  match st.listen with
  | None -> ()
  | Some fd ->
    st.listen <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Sys.remove st.cfg.socket with Sys_error _ -> ());
    locked st (fun () -> Condition.broadcast st.work_cv)

let connection_error st message =
  Wfc_obs.Metrics.incr c_errors;
  log_event st Wfc_obs.Log.Error "connection.error" [ ("message", Wfc_obs.Json.String message) ]

(* ---- the I/O loop ---- *)

(* The response to one decoded frame, or [None] when a job of the solver
   will answer it. *)
let respond st conn j =
  let t_decode = Wfc_obs.Metrics.now_s () in
  let parsed = Wire.request_of_json j in
  Wfc_obs.Metrics.observe h_stage_decode (Wfc_obs.Metrics.now_s () -. t_decode);
  match parsed with
  | Error e ->
    Wfc_obs.Metrics.incr c_errors;
    log_event st Wfc_obs.Log.Error "request.error" [ ("message", Wfc_obs.Json.String e) ];
    Some (Wire.Failed e)
  | Ok Wire.Ping ->
    log_event st Wfc_obs.Log.Debug "ping" [];
    Some (Wire.Pong { version = Some version; uptime_s = Some (uptime_s st) })
  | Ok Wire.Stats ->
    log_event st Wfc_obs.Log.Debug "stats" [];
    Some
      (Wire.Metrics
         { metrics = Wfc_obs.Snapshot.to_json (Wfc_obs.Snapshot.take ()); server = Some (server_json st) })
  | Ok Wire.Shutdown ->
    Atomic.set st.stopping true;
    stop_listening st;
    log_event st Wfc_obs.Log.Info "shutdown.request" [];
    Some Wire.Bye
  | Ok (Wire.Query { spec; req_id }) ->
    (* a pre-telemetry client carries no id; assign one so every log line
       and response of this request still correlates *)
    let req_id = match req_id with Some id -> id | None -> fresh_req_id st in
    handle_query st ~req_id ~conn spec

let close_conn st c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove st.conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let writing c = c.out_off < Bytes.length c.out

let reading c = (not c.waiting) && not (writing c)

let touch st c = c.idle_until <- Wfc_obs.Metrics.now_s () +. st.cfg.read_timeout_s

(* Writes what the socket takes now; the rest waits for the socket to
   turn writable. *)
let write_some st c =
  match Unix.single_write c.fd c.out c.out_off (Bytes.length c.out - c.out_off) with
  | n ->
    c.out_off <- c.out_off + n;
    touch st c;
    if not (writing c) then begin
      c.out <- Bytes.empty;
      c.out_off <- 0
    end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let send st c resp =
  let t_encode = Wfc_obs.Metrics.now_s () in
  c.waiting <- false;
  c.out <- Wire.frame_bytes (Wire.response_to_json resp);
  c.out_off <- 0;
  write_some st c;
  Wfc_obs.Metrics.observe h_stage_encode (Wfc_obs.Metrics.now_s () -. t_encode)

(* Answers the frames already buffered, one at a time: the next frame is
   decoded only once the previous answer is written, so a client that
   writes without reading holds at most one answer here. *)
let rec serve_buffered st c =
  if Atomic.get st.stopping then close_conn st c
  else
    match Wire.decode c.dec with
    | None -> ()
    | Some (Ok None) -> close_conn st c
    | Some (Error e) ->
      (* a hostile or broken client: out-of-bounds length, truncated frame
         or non-JSON payload *)
      Wfc_obs.Metrics.incr c_errors;
      log_event st Wfc_obs.Log.Error "request.error" [ ("message", Wfc_obs.Json.String e) ];
      close_conn st c
    | Some (Ok (Some j)) -> (
      match respond st c j with
      | None -> c.waiting <- true
      | Some resp ->
        send st c resp;
        if reading c then serve_buffered st c)

(* A connection fails alone: whatever it raises closes it, and only what
   is not the peer leaving counts as an error. *)
let guard st c f =
  try f () with
  | Unix.Unix_error _ -> close_conn st c
  | e ->
    connection_error st (Printexc.to_string e);
    close_conn st c

let on_readable st c =
  match Wire.decoder_read c.dec c.fd with
  | _ ->
    touch st c;
    serve_buffered st c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let on_writable st c =
  write_some st c;
  if reading c then serve_buffered st c

(* Answers every connection waiting on a job the solver has published. *)
let on_wake st =
  (try ignore (Unix.read st.wake_r (Bytes.create 64) 0 64)
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  let jobs =
    locked st (fun () ->
        let jobs = List.of_seq (Queue.to_seq st.completed) in
        Queue.clear st.completed;
        jobs)
  in
  List.iter
    (fun job ->
      let result = Option.get job.j_result in
      List.iter
        (fun (c, answer) ->
          if not c.closed then
            guard st c (fun () ->
                send st c (answer result);
                if reading c then serve_buffered st c))
        (List.rev job.j_waiters))
    jobs

(* Accepts until the backlog is empty or the cap is reached. *)
let rec accept_some st listen_fd =
  if Hashtbl.length st.conns < st.cfg.max_connections then
    match Unix.accept ~cloexec:true listen_fd with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
      ->
      ()
    | exception Unix.Unix_error (e, _, _) ->
      connection_error st ("accept: " ^ Unix.error_message e)
    | fd, _ ->
      (* descriptors are ints on Unix *)
      let n : int = Obj.magic fd in
      if n >= fd_setsize then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        connection_error st (Printf.sprintf "descriptor %d is beyond select's limit" n)
      end
      else begin
        Unix.set_nonblock fd;
        let c =
          {
            fd;
            dec = Wire.decoder ();
            out = Bytes.empty;
            out_off = 0;
            waiting = false;
            closed = false;
            idle_until = 0.;
          }
        in
        touch st c;
        Hashtbl.replace st.conns fd c;
        Wfc_obs.Metrics.incr c_accepted
      end;
      accept_some st listen_fd

(* The longest the loop sleeps, so a signal-initiated stop is noticed. *)
let tick_s = 0.2

(* Serves until a stop, then finishes: the listening socket is closed and
   unlinked at once, idle connections are dropped, connections waiting on
   the solver are answered, and the loop returns once none is left. A
   [select] that fails other than by a signal would fail again on the same
   sets, so it starts that stop; if the stop's own [select] fails too,
   every connection left is dropped, since the loop cannot watch them. *)
let io_loop st =
  let select_failed = ref false in
  let rec loop () =
    if Atomic.get st.stopping then begin
      stop_listening st;
      List.iter
        (fun c -> if reading c then close_conn st c)
        (List.of_seq (Hashtbl.to_seq_values st.conns))
    end;
    if st.listen <> None || Hashtbl.length st.conns > 0 then begin
      let now = Wfc_obs.Metrics.now_s () in
      List.iter (close_conn st)
        (Hashtbl.fold
           (fun _ c expired ->
             if (not c.waiting) && c.idle_until <= now then c :: expired else expired)
           st.conns []);
      let reads, writes, deadline =
        Hashtbl.fold
          (fun fd c (reads, writes, deadline) ->
            if c.waiting then (reads, writes, deadline)
            else if writing c then (reads, fd :: writes, Float.min deadline c.idle_until)
            else (fd :: reads, writes, Float.min deadline c.idle_until))
          st.conns
          ([], [], now +. tick_s)
      in
      let accepting =
        match st.listen with
        | Some fd when Hashtbl.length st.conns < st.cfg.max_connections -> Some fd
        | _ -> None
      in
      let reads = st.wake_r :: Option.fold ~none:reads ~some:(fun fd -> fd :: reads) accepting in
      (match Unix.select reads writes [] (Float.max 0. (deadline -. now)) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
        Wfc_obs.Metrics.incr c_errors;
        log_event st Wfc_obs.Log.Error "select.error"
          [ ("message", Wfc_obs.Json.String (Unix.error_message e)) ];
        if !select_failed then
          List.iter (close_conn st) (List.of_seq (Hashtbl.to_seq_values st.conns));
        select_failed := true;
        Atomic.set st.stopping true
      | readable, writable, _ ->
        if List.mem st.wake_r readable then on_wake st;
        let ready p f fd =
          match Hashtbl.find_opt st.conns fd with
          | Some c when p c -> guard st c (fun () -> f st c)
          | _ -> ()
        in
        List.iter (ready writing on_writable) writable;
        List.iter (ready reading on_readable) readable;
        (* a shutdown read above has closed the listening socket *)
        match accepting with
        | Some fd when st.listen <> None && List.mem fd readable -> accept_some st fd
        | _ -> ());
      loop ()
    end
  in
  loop ()

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
  let listen_fd = bind_socket cfg.socket in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  List.iter Unix.set_nonblock [ listen_fd; wake_r; wake_w ];
  let st =
    {
      cfg;
      store;
      tasks = Wfc_storage.Lru.create task_memo_capacity;
      started_at = Wfc_obs.Metrics.now_s ();
      log;
      m = Mutex.create ();
      work_cv = Condition.create ();
      completed = Queue.create ();
      wake_r;
      wake_w;
      by_digest = Hashtbl.create 64;
      rotation = Queue.create ();
      npending = 0;
      inflight = Hashtbl.create 64;
      solver = { s_state = `Idle; s_jobs = 0 };
      req_seq = Atomic.make 0;
      stopping = Atomic.make false;
      listen = Some listen_fd;
      conns = Hashtbl.create 64;
    }
  in
  log_event st Wfc_obs.Log.Info "serve.start"
    [
      ("socket", Wfc_obs.Json.String cfg.socket);
      ("store", Wfc_obs.Json.String cfg.store_dir);
      ("queue_capacity", Wfc_obs.Json.Int cfg.queue_capacity);
      ("max_connections", Wfc_obs.Json.Int cfg.max_connections);
      ("version", Wfc_obs.Json.String version);
    ];
  let initiate_stop _ = Atomic.set st.stopping true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle initiate_stop) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle initiate_stop) in
  let solver = Thread.create solver_loop st in
  (match cfg.on_ready with Some f -> f () | None -> ());
  io_loop st;
  (* every admitted question has been answered, so the solver has drained
     its queue and exits *)
  Thread.join solver;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ wake_r; wake_w ];
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
