(* The append-only manifest: one canonical single-line JSON entry per
   mutation, fsync'd. It is the index that lets ls/verify/gc answer from
   one sequential read instead of a readdir of the world, and it is always
   *derived* state: every entry can be rebuilt from a directory walk, so a
   lost or stale manifest costs a rebuild, never data. Writes append; [gc]
   compacts by rewriting the live set. A torn trailing line (crash mid-
   append) is tolerated on load and reported, because the record file
   itself was already durable before its manifest line was written. *)

let schema_version = "wfc.manifest.v1"

type op = Put | Del

type kind = Verdict | Skeleton

type entry = {
  op : op;
  kind : kind;
  rel : string;  (* store-relative path of the artifact *)
  digest : string;
  model : string;  (* "" for skeletons *)
  max_level : int;  (* subdivision level for skeletons *)
  budget : int;  (* 0 for skeletons *)
  verdict : string;  (* "" for skeletons and deletions *)
  level : int;  (* decided level; 0 when not applicable *)
  codec : string;
  created_at : float;
}

let op_to_string = function Put -> "put" | Del -> "del"

let kind_to_string = function Verdict -> "verdict" | Skeleton -> "skeleton"

let entry_to_json e =
  let open Wfc_obs.Json in
  Obj
    [
      ("schema", String schema_version);
      ("op", String (op_to_string e.op));
      ("kind", String (kind_to_string e.kind));
      ("rel", String e.rel);
      ("digest", String e.digest);
      ("model", String e.model);
      ("max_level", Int e.max_level);
      ("budget", Int e.budget);
      ("verdict", String e.verdict);
      ("level", Int e.level);
      ("codec", String e.codec);
      ("created_at", Float e.created_at);
    ]

let ( let* ) = Result.bind

let string_member key j =
  match Wfc_obs.Json.member key j with
  | Some (Wfc_obs.Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing or non-string %S" key)

let int_member key j =
  match Wfc_obs.Json.member key j with
  | Some (Wfc_obs.Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing or non-int %S" key)

let number_member key j =
  match Wfc_obs.Json.member key j with
  | Some (Wfc_obs.Json.Float f) -> Ok f
  | Some (Wfc_obs.Json.Int i) -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "missing or non-number %S" key)

let entry_of_json j =
  let* schema = string_member "schema" j in
  let* () =
    if schema = schema_version then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" schema schema_version)
  in
  let* op =
    let* s = string_member "op" j in
    match s with
    | "put" -> Ok Put
    | "del" -> Ok Del
    | s -> Error (Printf.sprintf "unknown op %S" s)
  in
  let* kind =
    let* s = string_member "kind" j in
    match s with
    | "verdict" -> Ok Verdict
    | "skeleton" -> Ok Skeleton
    | s -> Error (Printf.sprintf "unknown kind %S" s)
  in
  let* rel = string_member "rel" j in
  let* digest = string_member "digest" j in
  let* model = string_member "model" j in
  let* max_level = int_member "max_level" j in
  let* budget = int_member "budget" j in
  let* verdict = string_member "verdict" j in
  let* level = int_member "level" j in
  let* codec = string_member "codec" j in
  let* created_at = number_member "created_at" j in
  Ok
    {
      op;
      kind;
      rel;
      digest;
      model;
      max_level;
      budget;
      verdict;
      level;
      codec;
      created_at;
    }

(* ---- the append handle ---- *)

type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  mu : Mutex.t;
}

let create path = { path; fd = None; mu = Mutex.create () }

(* A crash mid-append can leave the file ending in a partial line with no
   newline. Appending straight after it would glue the next entry onto the
   torn prefix, losing both; terminating the tail first confines the damage
   to the one line the crash already tore. *)
let ends_without_newline path =
  match Unix.stat path with
  | exception Unix.Unix_error _ -> false
  | st ->
    st.Unix.st_size > 0
    &&
    let rfd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close rfd)
      (fun () ->
        ignore (Unix.lseek rfd (-1) Unix.SEEK_END);
        let last = Bytes.create 1 in
        Unix.read rfd last 0 1 = 1 && Bytes.get last 0 <> '\n')

let fd_of t =
  match t.fd with
  | Some fd -> fd
  | None ->
    Layout.mkdir_p (Filename.dirname t.path);
    let heal = ends_without_newline t.path in
    let fd =
      Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    in
    if heal then ignore (Unix.write_substring fd "\n" 0 1);
    t.fd <- Some fd;
    fd

let append t entry =
  let line = Wfc_obs.Json.to_line (entry_to_json entry) ^ "\n" in
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      let fd = fd_of t in
      let n = String.length line in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd line !written (n - !written)
      done;
      Unix.fsync fd)

let close t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      match t.fd with
      | None -> ()
      | Some fd ->
        t.fd <- None;
        Unix.close fd)

(* ---- reading ---- *)

type load_report = { entries : entry list; bad_lines : int }

let load path =
  if not (Sys.file_exists path) then { entries = []; bad_lines = 0 }
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] in
        let bad = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Wfc_obs.Json.parse line with
               | Error _ -> incr bad
               | Ok j -> (
                 match entry_of_json j with
                 | Error _ -> incr bad
                 | Ok e -> entries := e :: !entries)
           done
         with End_of_file -> ());
        { entries = List.rev !entries; bad_lines = !bad })
  end

(* The live view: replay puts and dels in order, keyed by relative path.
   Returned sorted by path so every consumer (ls, verify, compaction) is
   deterministic. *)
let live entries =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun e ->
      match e.op with
      | Put -> Hashtbl.replace tbl e.rel e
      | Del -> Hashtbl.remove tbl e.rel)
    entries;
  let out = Hashtbl.fold (fun _ e acc -> e :: acc) tbl [] in
  List.sort (fun a b -> compare a.rel b.rel) out

(* Atomically replace the log with exactly the live set. Used by [gc] and
   by rebuild-from-walk. *)
let write_full path entries =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Wfc_obs.Json.to_line (entry_to_json e));
      Buffer.add_char buf '\n')
    entries;
  Layout.atomic_write path (Buffer.contents buf)
