(* The sharded (v3) on-disk layout. A flat directory of records hits two
   walls at millions of entries: readdir of the root becomes the cost of
   every ls/verify/gc, and one directory holding millions of entries
   degrades the filesystem itself. Sharding by the first four hex chars of
   the digest bounds any directory at ~1/65536 of the population, and the
   digest is uniformly distributed, so the split is even by construction.
   Shards are created lazily on first write — an empty store is one
   directory and its quarantine pen, not 65k empty subdirectories. The
   tree is the store's only index: ls/verify/gc walk it. *)

let shard_of_digest digest =
  if String.length digest < 4 then invalid_arg "Layout.shard_of_digest";
  (String.sub digest 0 2, String.sub digest 2 2)

let rel_of_basename ~digest basename =
  let a, b = shard_of_digest digest in
  Filename.concat a (Filename.concat b basename)

(* Records are canonical JSON, so every verdict file ends in [.json]. *)
let verdict_basename ~digest ~model ~max_level =
  Printf.sprintf "%s.%s.L%d.json" digest
    (Wfc_tasks.Model.slug_of_name model)
    max_level

let verdict_rel ~digest ~model ~max_level =
  rel_of_basename ~digest (verdict_basename ~digest ~model ~max_level)

(* The skeleton keyspace lives beside the verdict shards under its own
   root, sharded the same way; the digest here is the structural digest of
   the complex being subdivided, the level the number of SDS applications. *)
let skeleton_root = "skeletons"

let skeleton_basename ~digest ~level = Printf.sprintf "%s.L%d.json" digest level

let skeleton_rel ~digest ~level =
  Filename.concat skeleton_root
    (rel_of_basename ~digest (skeleton_basename ~digest ~level))

let quarantine_root = "quarantine"

(* Temp files use an extension no scan ever treats as a record, so a crash
   between create and rename can only leave debris that ls/verify report and
   gc reaps — never a half-record that parses as garbage. The name embeds
   pid + a process-local counter so two writers racing on one key never
   share a temp path. *)
let tmp_ext = ".wtmp"

let tmp_counter = Atomic.make 0

let tmp_path_for path =
  Printf.sprintf "%s.%d.%d%s" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1)
    tmp_ext

let is_tmp name = Filename.check_suffix name tmp_ext

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_fsync path data =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length data in
      let written = ref 0 in
      while !written < n do
        written :=
          !written
          + Unix.write_substring fd data !written (n - !written)
      done;
      Unix.fsync fd)

(* Atomic durable publish: write + fsync a uniquely-named temp in the
   destination directory, then rename over the target. Readers see either
   the old bytes or the new bytes, never a prefix. *)
let atomic_write path data =
  mkdir_p (Filename.dirname path);
  let tmp = tmp_path_for path in
  write_fsync tmp data;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Recursive walk of a store root, yielding paths relative to it. Only used
   by ls/verify/gc — the serving path never walks. *)
let walk root ~f =
  let rec go rel =
    let abs = if rel = "" then root else Filename.concat root rel in
    match Sys.is_directory abs with
    | true ->
      let entries = Sys.readdir abs in
      Array.sort compare entries;
      Array.iter
        (fun name ->
          go (if rel = "" then name else Filename.concat rel name))
        entries
    | false -> f rel
    | exception Sys_error _ -> ()
  in
  if Sys.file_exists root then go ""
