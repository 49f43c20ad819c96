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

    Concurrency model: one I/O thread, one solver thread, all on one
    domain. The solver's caches (subdivision, symmetry and collapse memos)
    therefore have a single writer by construction. A second solver thread
    on the same domain never ran in parallel and measured no gain
    (DESIGN §9). Pending work is grouped by task digest and dispatched
    round-robin across digests, so a burst of questions on one task cannot
    starve another task's cold query. The I/O thread runs one [select]
    loop over the listening socket, the solver's wake pipe and every open
    connection, all nonblocking: it accepts ([serve.connections.accepted]),
    reads and decodes frames incrementally, and answers hits, pings,
    stats, sheds and failures inline, with no thread hand-off. A miss or
    a coalesced join leaves its connection waiting on the job; the solver
    publishes the job and writes one byte to the wake pipe, and the loop
    answers every connection waiting on it. A task build (a task-memo
    miss) also runs on the I/O thread, so no connection is served while
    it runs. A connection has at most one
    request in flight: its next frame is decoded only once the previous
    answer is written. At most [max_connections] are open; at the cap the
    loop stops accepting, so further connects wait in the listen backlog.
    A connection with no request byte arriving and no answer byte leaving
    for [read_timeout_s] is closed (one waiting on the solver never is).
    A connection fails alone: whatever it raises closes it, counted in
    [serve.errors] unless the peer just left. A frame the loop cannot
    read (out-of-bounds length, truncated, not JSON) is counted in
    [serve.errors] and logged as [request.error]. An accepted descriptor
    that [select] cannot watch (at or above [FD_SETSIZE], 1024) is closed
    at once and counted in [serve.errors].

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
    [serve.start], [query], [shed], [request.error]/[query.error]/[solve.error],
    [shutdown.request], [serve.stop], plus [ping]/[stats] at debug level;
    with [slow_ms] set, any query slower than the threshold additionally
    emits a [slow_query] warning carrying the full spec, verdict source and
    search statistics. A [stats] request returns the metrics snapshot plus
    a [server] block: version, uptime, in-flight count, queue depth, the
    [connections] [open] and their [capacity], the task memo's size and
    capacity, and the solver's state. On shutdown the
    daemon prints a traffic summary.
    SIGINT/SIGTERM trigger the same clean shutdown as a [shutdown]
    request: the listening socket is closed and unlinked at once (a late
    connect is refused), idle connections are dropped, and the solver
    drains the pending queue and finishes its in-flight job, whose
    waiting connections are answered, before the daemon exits; SIGKILL
    at any instant leaves a loadable store ({!Wfc_storage.Engine.put} is
    atomic). *)

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
  max_connections : int;  (** connections open at once, at least 1 *)
  read_timeout_s : float;
      (** a connection that neither sends request bytes nor takes answer
          bytes for this long is closed; one waiting on the solver never is *)
}

val config :
  ?queue_capacity:int ->
  ?log:string ->
  ?log_level:Wfc_obs.Log.level ->
  ?slow_ms:float ->
  ?max_connections:int ->
  ?read_timeout_s:float ->
  socket:string ->
  store_dir:string ->
  unit ->
  config
(** Defaults: queue capacity 64, no hooks, no event log (level
    [Info] once one is given), no slow-query threshold, 128 connections,
    a 10 s read timeout. The connection cap and the timeout have no CLI
    flag; they are set here for tests.
    @raise Invalid_argument if [max_connections] is below 1. *)

val run : config -> unit
(** Binds the socket (refusing if a live daemon already answers on it,
    replacing it if stale) and serves until a [shutdown] request, SIGINT,
    or SIGTERM. Returns after the solver thread has drained every admitted
    question and the socket file is unlinked.
    @raise Failure if the socket is in use by a live daemon or cannot be
    bound. *)
