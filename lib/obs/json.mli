(** Minimal canonical JSON: one tree type, one emitter, one parser.

    Every machine-readable artifact of the repository — [wfc ... --json],
    [bench/main.exe --json], CI smoke checks — flows through this module, so
    there is exactly one serialization to keep schema-compatible. The
    emitter is {e canonical}: object keys are emitted in sorted order and
    floats in a fixed ["%.6f"] format, so equal values produce equal bytes
    and committed artifacts diff cleanly. The parser accepts standard JSON
    (it is not limited to the canonical form) and exists so tests and the CI
    smoke step can round-trip and validate emitted files without external
    tooling. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Canonical, human-readable rendering: two-space indentation, object keys
    sorted, floats as ["%.6f"] (non-finite floats degrade to [null]). *)

val to_line : t -> string
(** Canonical single-line rendering: the same sorted keys and ["%.6f"]
    floats as {!to_string} but with no whitespace and no trailing newline —
    one value per line, the shape JSONL event logs require. *)

val parse : string -> (t, string) result
(** Standard JSON parser (objects, arrays, strings with escapes, numbers —
    an integer literal parses to [Int], anything with [./e/E] to [Float] —
    booleans, null). Errors carry a character offset. Arrays and objects
    nest at most {!max_depth} deep: a deeper document is an [Error], so a
    hostile input cannot drive the parser's recursion arbitrarily deep. *)

val max_depth : int
(** 512. *)

val member : string -> t -> t option
(** [member key j] is the value bound to [key] if [j] is an object. *)

val equal : t -> t -> bool
(** Structural equality, insensitive to object key order. *)
