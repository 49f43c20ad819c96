(** The long-running solvability daemon behind [wfc serve].

    One process owns a {!Wfc_storage.Engine.t} and a Unix-domain socket and answers
    {!Wire} queries:

    - {b store hit} ([serve.hits]): the record is served without building a
      single subdivision, and, once the daemon has seen the instance, without
      building the task either: built tasks stay in a task memo, an LRU of
      64 keyed by (task, procs, param) ([serve.task_memo.hits] /
      [.misses]; a build that fails is never memoized);
    - {b in-flight dedup} ([serve.coalesced]): a query whose question is
      already queued or being solved attaches to that computation instead
      of re-entering the queue — N concurrent identical queries cost one
      search;
    - {b miss} ([serve.misses]): the question joins a bounded queue and is
      picked up by the solver thread, which answers it through
      {!Wfc_storage.Engine.answer} — look up again, else solve and file
      the verdict — before anyone is answered;
    - {b shed} ([serve.shed]): if the pending queue is full the daemon
      answers [shed] immediately — explicit backpressure; clients fall
      back to an inline solve or retry, the daemon never buffers
      unboundedly.

    Concurrency model: one accepting thread, one handler thread per
    connection, and one solver thread, all on one domain. The solver's
    caches (subdivision, symmetry and collapse memos) therefore have a
    single writer by construction. A second solver thread on the same
    domain never ran in parallel and measured no gain (DESIGN §9). Pending
    work is grouped by task digest and dispatched round-robin across
    digests, so a burst of questions on one task cannot starve another
    task's cold query. The store-hit fast path never touches the solve
    queue: handler threads answer hits directly under the state mutex.

    {b Telemetry.} Every request carries a correlation id (client-supplied
    [req_id] or daemon-assigned) that is echoed in the response and stamped
    on every log line of the request. The lifecycle is measured stage by
    stage — [serve.stage.decode.seconds], [.task.] (model parse and
    task-memo lookup, plus the task build on a memo miss), [.admission.],
    [.queue_wait.], [.solve.], [.store_put.], [.encode.] — alongside the
    end-to-end [serve.latency.seconds], its per-source splits
    ([serve.latency.store.seconds] / [.computed.] / [.coalesced.]) and
    per-model-family splits ([serve.latency.model.<family>.seconds], where
    the family is [wait-free], [t-resilient] or [k-set]).
    [serve.queue.depth] is sampled on both enqueue and dequeue, so the
    histogram sees drains as well as arrival bursts. With [log] set the
    daemon appends one [wfc.log.v1] line per event ({!Wfc_obs.Log}):
    [serve.start], [query], [shed], [query.error]/[solve.error],
    [shutdown.request], [serve.stop], plus [ping]/[stats] at debug level;
    with [slow_ms] set, any query slower than the threshold additionally
    emits a [slow_query] warning carrying the full spec, verdict source and
    search statistics. A [stats] request returns the metrics snapshot plus
    a [server] block: version, uptime, in-flight count, queue depth, the
    task memo's size and capacity, and the solver's state. On shutdown the
    daemon prints a traffic summary.
    SIGINT/SIGTERM trigger the same clean shutdown as a [shutdown]
    request — the solver drains the pending queue and finishes its
    in-flight job before the daemon exits; SIGKILL at any instant
    leaves a loadable store ({!Wfc_storage.Engine.put} is atomic). *)

val version : string
(** The daemon's version string, reported in [pong] and [stats] responses
    and in the [serve.start] log event. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  store_dir : string;
  queue_capacity : int;  (** pending (not yet solving) questions admitted *)
  on_ready : (unit -> unit) option;  (** called once the socket accepts *)
  gate : (string -> unit) option;
      (** test/bench instrumentation: the solver thread calls this with
          the question's digest immediately before each computation — a
          hook to hold it while clients pile onto in-flight entries *)
  log : string option;  (** append [wfc.log.v1] event lines here *)
  log_level : Wfc_obs.Log.level;  (** minimum level written to [log] *)
  slow_ms : float option;
      (** emit a [slow_query] warning for any query at least this many
          milliseconds end-to-end; [Some 0.] logs every query as slow *)
}

val config :
  ?queue_capacity:int ->
  ?log:string ->
  ?log_level:Wfc_obs.Log.level ->
  ?slow_ms:float ->
  socket:string ->
  store_dir:string ->
  unit ->
  config
(** Defaults: queue capacity 64, no hooks, no event log (level
    [Info] once one is given), no slow-query threshold. *)

val run : config -> unit
(** Binds the socket (refusing if a live daemon already answers on it,
    replacing it if stale) and serves until a [shutdown] request, SIGINT,
    or SIGTERM. Returns after the solver thread has drained every admitted
    question and the socket file is unlinked.
    @raise Failure if the socket is in use by a live daemon or cannot be
    bound. *)
