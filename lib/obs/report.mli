(** The one JSON report schema shared by [wfc ... --json] and
    [bench/main.exe --json].

    Shape ([schema = "wfc.obs.v1"]):
    {v
    {
      "schema": "wfc.obs.v1",
      "scenarios": [
        {"name": "...", "seconds": 0.123456, "nodes": 1140,
         "verdict": "solvable", ...extra fields...},
        ...
      ],
      "counters": { "solvability.nodes": 1140, ... },   (optional)
      "histograms": {...}, "spans": [...]               (optional)
    }
    v}

    [nodes] and [verdict] are optional per scenario; the metrics sections
    appear only when a {!Snapshot.t} is supplied. {!validate} is the
    check used by [wfc check-json] in CI, so producers and the validator
    can never drift apart. *)

val schema_version : string
(** ["wfc.obs.v1"]. *)

type scenario = {
  name : string;
  seconds : float;
  nodes : int option;
  verdict : string option;
  extra : (string * Json.t) list;  (** merged into the scenario object *)
}

val scenario :
  ?nodes:int -> ?verdict:string -> ?extra:(string * Json.t) list ->
  string -> float -> scenario
(** [scenario name seconds]. *)

val to_json :
  ?machine:(string * Json.t) list -> ?snapshot:Snapshot.t -> scenario list -> Json.t
(** [machine], when given, is emitted as a top-level ["machine"] object —
    provenance for timing numbers (domain count, git revision, whether the
    container is single-core). {!validate} ignores unknown top-level
    fields, so reports with and without it validate alike. *)

val machine_facts : unit -> (string * Json.t) list
(** The standard [~machine] stamp: [recommended_domain_count], [git_sha]
    (via [git rev-parse HEAD], ["unknown"] outside a checkout) and
    [single_core_container]. Shared by [bench/main.exe] and [perfbench]
    so every timing artifact carries the same provenance fields. *)

val write_file : string -> Json.t -> unit
(** Writes {!Json.to_string} (canonical form) to the path, truncating. *)

val validate :
  ?expect_verdict:string -> ?min_nodes:int -> ?scenario_name:string ->
  Json.t -> (unit, string) result
(** Structural check: schema tag, [scenarios] is an array of objects each
    carrying a string [name] and a number [seconds]; [nodes]/[verdict],
    when present, are an int / a string. With [?scenario_name], the named
    scenario must exist and the [expect_verdict] / [min_nodes] constraints
    apply to it; without it they apply to at least one scenario. *)
