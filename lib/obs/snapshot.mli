(** Immutable point-in-time captures of the {!Metrics} registry.

    A snapshot is a plain value: taking one never perturbs the registry,
    and two snapshots can be diffed to isolate the cost of a region of
    work. Rendering is aligned text ([--stats], [wfc stats]), Prometheus
    text or canonical JSON via {!to_json} — the object {!Report} embeds and
    {!of_json} reads back from a daemon, so this is the one module that
    encodes, decodes or prints a histogram. *)

type t = {
  counters : (string * int) list;  (** name-sorted *)
  histograms : (string * Metrics.histo_stats) list;  (** name-sorted *)
  spans : Metrics.span_node list;  (** first-opened order *)
}

val take : unit -> t

val counter_value : t -> string -> int option

val diff : t -> t -> t
(** [diff before after]: counter and histogram deltas ([after - before],
    clamped at 0 for instruments that were reset in between); spans are
    taken from [after]. *)

val to_json : t -> Json.t
(** [{"counters": {..}, "histograms": {name: {count, sum, mean, min,
    max}}, "spans": [{name, calls, seconds, children}]}]. *)

val of_json : Json.t -> (t, string) result
(** The inverse of {!to_json} ([mean] is ignored). A missing section reads
    as empty; a non-object, a non-int counter, or a histogram or span
    missing a field is an [Error] naming it. *)

val to_text : t -> string
(** Aligned text: one dotted-name column per counter/histogram, spans as an
    indented tree. Empty sections are omitted; an empty snapshot renders as
    ["(no metrics recorded)"]. *)

val to_prometheus : t -> string
(** Text exposition: each counter as [wfc_<name>] of type [counter], each
    histogram as a [summary] with [_count] and [_sum] lines; [<name>] has
    every byte outside [[A-Za-z0-9]] replaced by [_]. *)
