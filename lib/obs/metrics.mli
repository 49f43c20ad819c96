(** Named monotone counters, histograms/timers, and hierarchical spans.

    This is the process-global metrics registry behind [--stats],
    [--json] and the instrumentation in the topology/model/core libraries.
    Design constraints, in order:

    - {b hot-path cost}: incrementing a counter is one lock-free atomic
      add on a pre-resolved handle — resolve the handle once at module
      initialization ([let c = Metrics.counter "x.y"]), never per event;
    - {b monotonicity}: counters only go up ({!add} rejects negative
      deltas); the only way down is {!reset}, which zeroes every
      instrument at once (handles stay valid across resets);
    - {b determinism}: identical seeded runs perform identical counter
      increments, so counter deltas are themselves reproducible artifacts
      (guarded by tests, like the search-node invariant of the solver).

    Naming convention: dot-separated [library.subsystem.event] paths, all
    lowercase — e.g. [solvability.nodes], [sds.memo.hits],
    [simplex.intern.hits], [runtime.steps]. Counters count events;
    histograms aggregate float observations (timers record seconds).

    Thread-safety: every entry point is domain-safe. Counters are atomics;
    registration (get-or-create), histograms, span accounting and the
    read-out functions share one mutex. The span {e stack} (which span is
    "current") is domain-local: concurrent domains nest spans
    independently, and a span opened at a domain's top level becomes a
    root span in the shared forest. {!reset} clears measurements globally
    but can only unwind the calling domain's open-span path — call it
    while no other domain has a span open. {!reset} clears
    {e measurements} only; the interned simplex arena is never emptied. *)

type counter

val counter : string -> counter
(** Get-or-create by name: the same name always yields the same counter. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Monotone: @raise Invalid_argument on a negative delta. *)

val value : counter -> int

val counter_name : counter -> string

type histogram

val histogram : string -> histogram
(** Get-or-create by name, like {!counter}. *)

val observe : histogram -> float -> unit

val now_s : unit -> float
(** Wall-clock seconds (gettimeofday); the clock used by {!time} and
    {!with_span}. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Runs the thunk and observes its wall-clock duration in seconds (also on
    exception). *)

val with_span : string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a named span nested under the currently open span.
    Same-named siblings accumulate (calls, total seconds) into one node.
    Exits are exception-safe, so the span tree is always well-formed. *)

val span_depth : unit -> int
(** Number of spans currently open {e on the calling domain} (0 at top
    level). *)

val reset : unit -> unit
(** Zeroes all counters and histograms and clears the span tree. Handles
    remain registered and valid. *)

(** {1 Read-out} — consumed by {!Snapshot}; names are returned sorted. *)

type histo_stats = { count : int; sum : float; min : float; max : float }

type span_node = {
  span_name : string;
  calls : int;
  total_s : float;
  children : span_node list;
}

val counters_now : unit -> (string * int) list

val histograms_now : unit -> (string * histo_stats) list
(** Histograms that have at least one observation. *)

val spans_now : unit -> span_node list
(** Root spans in first-opened order, children likewise. *)
