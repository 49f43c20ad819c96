type t = {
  sd : Subdiv.t;
  prev : t option;
  own_tbl : (int, int) Hashtbl.t; (* top vertex -> prev vertex *)
  snap_tbl : (int, Simplex.t) Hashtbl.t; (* top vertex -> prev simplex *)
}

let of_chromatic a =
  { sd = Subdiv.identity a; prev = None; own_tbl = Hashtbl.create 0; snap_tbl = Hashtbl.create 0 }

let subdiv t = t.sd

let complex t = t.sd.Subdiv.cx

let base t = t.sd.Subdiv.base

let levels t = t.sd.Subdiv.levels

let prev t = t.prev

let own t v =
  match Hashtbl.find_opt t.own_tbl v with
  | Some u -> u
  | None -> invalid_arg "Sds.own: not available (level 0 or unknown vertex)"

let snap t v =
  match Hashtbl.find_opt t.snap_tbl v with
  | Some s -> s
  | None -> invalid_arg "Sds.snap: not available (level 0 or unknown vertex)"

let carrier t v = t.sd.Subdiv.carrier v

let color t v = Chromatic.color (complex t) v

(* Vertices of the next level are pairs (v, S) with v ∈ S; key them by
   (v, interned id of S) so collection costs one integer-pair hash per
   occurrence instead of a polymorphic comparison of vertex lists. *)
module Key = struct
  type t = int * int (* own prev vertex, interned snap id *)

  let equal (a, b) (c, d) = a = c && b = d

  let hash (a, b) = (a * 0x9e3779b1) lxor b
end

module Key_tbl = Hashtbl.Make (Key)

let c_memo_hits = Wfc_obs.Metrics.counter "sds.memo.hits"

let c_memo_misses = Wfc_obs.Metrics.counter "sds.memo.misses"

let c_facets = Wfc_obs.Metrics.counter "sds.facets"

let c_skel_hits = Wfc_obs.Metrics.counter "sds.skeleton.hits"

let c_skel_misses = Wfc_obs.Metrics.counter "sds.skeleton.misses"

(* [subdivide] splits into two halves. [enumerate] is the combinatorial
   search: the vertex universe (all (v, S) with v ∈ S) and the
   ordered-partition facet expansion — the part whose cost explodes with
   the level. [build_level] is the deterministic tail that turns that
   enumeration into a chromatic complex with carriers and Kozlov points.
   The split exists so a persisted skeleton — exactly the enumeration
   output — can skip the search and replay only the tail, bit-for-bit. *)
let enumerate t =
  let prev_cx = complex t in
  let prev_complex = Chromatic.complex prev_cx in
  (* Collect the vertex universe: all (v, S) with v ∈ S a simplex. The
     simplices of the closure are exactly the possible snapshots. *)
  let seen = Key_tbl.create 1024 in
  let pairs = ref [] in
  List.iter
    (fun s ->
      Simplex.iter
        (fun v ->
          let key = (v, Simplex.id s) in
          if not (Key_tbl.mem seen key) then begin
            Key_tbl.add seen key ();
            pairs := (v, s) :: !pairs
          end)
        s)
    (Complex.simplices prev_complex);
  (* Number vertices in the historical order — ascending (v, snap) — so the
     complexes produced are bit-for-bit those of the list-keyed builder. *)
  let ordered =
    List.sort
      (fun (v1, s1) (v2, s2) ->
        if v1 <> v2 then compare v1 v2 else Simplex.compare s1 s2)
      !pairs
  in
  let nverts = List.length ordered in
  let ids = Key_tbl.create nverts in
  List.iteri (fun i (v, s) -> Key_tbl.replace ids (v, Simplex.id s) i) ordered;
  let id_of v s = Key_tbl.find ids (v, Simplex.id s) in
  (* Facets: ordered partitions of each facet of the previous complex, in
     facet order. *)
  let facets =
    List.concat_map
      (fun facet ->
        List.map
          (fun partition ->
            List.map
              (fun (v, prefix) -> id_of v (Simplex.of_sorted prefix))
              (Ordered_partition.views partition))
          (Ordered_partition.enumerate (Simplex.to_list facet)))
      (Complex.facets prev_complex)
  in
  (ordered, facets)

let build_level t (ordered, facets) =
  let prev_cx = complex t in
  let prev_complex = Chromatic.complex prev_cx in
  let nverts = List.length ordered in
  Wfc_obs.Metrics.add c_facets (List.length facets);
  let new_complex =
    Complex.of_facets ~name:(Complex.name prev_complex ^ "'") facets
  in
  let own_tbl = Hashtbl.create nverts in
  let snap_tbl = Hashtbl.create nverts in
  List.iteri
    (fun id (v, s) ->
      Hashtbl.replace own_tbl id v;
      Hashtbl.replace snap_tbl id s)
    ordered;
  let color_of id = Chromatic.color prev_cx (Hashtbl.find own_tbl id) in
  let chroma = Chromatic.make ~check:false new_complex ~color:color_of in
  (* Carrier in the base: union of previous carriers over the snapshot. *)
  let carrier_tbl = Hashtbl.create nverts in
  Hashtbl.iter
    (fun id s ->
      let c =
        Simplex.fold (fun acc u -> Simplex.union acc (t.sd.Subdiv.carrier u)) Simplex.empty s
      in
      Hashtbl.replace carrier_tbl id c)
    snap_tbl;
  (* Kozlov realization relative to the previous level's points. *)
  let point_tbl = Hashtbl.create nverts in
  Hashtbl.iter
    (fun id s ->
      let v = Hashtbl.find own_tbl id in
      let q = Simplex.card s in
      let denom = (2 * q) - 1 in
      let terms =
        List.map
          (fun u ->
            let w = if u = v then 1 else 2 in
            (Rat.make w denom, t.sd.Subdiv.point u))
          (Simplex.to_list s)
      in
      Hashtbl.replace point_tbl id (Point.combine terms))
    snap_tbl;
  let sd =
    Subdiv.make ~kind:"sds"
      ~levels:(t.sd.Subdiv.levels + 1)
      ~base:t.sd.Subdiv.base ~cx:chroma
      ~carrier:(fun v -> Hashtbl.find carrier_tbl v)
      ~point:(fun v -> Hashtbl.find point_tbl v)
  in
  { sd; prev = Some t; own_tbl; snap_tbl }

let subdivide t =
  Wfc_obs.Metrics.with_span "sds.subdivide" @@ fun () ->
  build_level t (enumerate t)

(* ---- persisted skeletons (wfc.skeleton.v1) ----

   A skeleton artifact is the [enumerate] output of one subdivision step —
   vertex pairs (own, snapshot) and facet id-lists — keyed by the
   structural digest of the {e base} complex and the target level.
   Rebuilding through [build_level] reproduces the step bit-for-bit, so a
   cold process solving against an already-seen [SDS^b(sⁿ)] loads b small
   artifacts instead of re-running the ordered-partition search. The store
   itself is injected ([set_skeleton_store]) so this library stays
   storage-agnostic; any load failure — absent, torn, wrong digest, wrong
   check — silently falls back to [subdivide] and re-saves. *)

type skeleton_store = {
  load : digest:string -> level:int -> string option;
  save : digest:string -> level:int -> string -> unit;
}

let skeleton_schema = "wfc.skeleton.v1"

let skel_store : skeleton_store option ref = ref None

let set_skeleton_store s = skel_store := s

let skeleton_core ~digest ~level ~pairs ~facets =
  let open Wfc_obs.Json in
  [
    ("schema", String skeleton_schema);
    ("base_digest", String digest);
    ("level", Int level);
    ( "pairs",
      Arr
        (List.map
           (fun (v, s) -> Arr [ Int v; Arr (List.map (fun u -> Int u) s) ])
           pairs) );
    ("facets", Arr (List.map (fun f -> Arr (List.map (fun v -> Int v) f)) facets));
  ]

let encode_skeleton ~digest ~level (ordered, facets) =
  let pairs = List.map (fun (v, s) -> (v, Simplex.to_list s)) ordered in
  let core = skeleton_core ~digest ~level ~pairs ~facets in
  let check =
    Digest.to_hex (Digest.string (Wfc_obs.Json.to_line (Wfc_obs.Json.Obj core)))
  in
  Wfc_obs.Json.to_string
    (Wfc_obs.Json.Obj (core @ [ ("check", Wfc_obs.Json.String check) ]))

let decode_skeleton ~digest ~level data =
  let open Wfc_obs.Json in
  let ( let* ) = Option.bind in
  let* j = Result.to_option (parse data) in
  let* schema = member "schema" j in
  let* base_digest = member "base_digest" j in
  let* lvl = member "level" j in
  let* () =
    if schema = String skeleton_schema && base_digest = String digest && lvl = Int level
    then Some ()
    else None
  in
  let int_of = function Int i when i >= 0 -> Some i | _ -> None in
  let ints_of = function
    | Arr l ->
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* i = int_of x in
          Some (i :: acc))
        l (Some [])
    | _ -> None
  in
  let* pairs =
    match member "pairs" j with
    | Some (Arr l) ->
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          match x with
          | Arr [ v; s ] ->
            let* v = int_of v in
            let* s = ints_of s in
            Some ((v, s) :: acc)
          | _ -> None)
        l (Some [])
    | _ -> None
  in
  let* facets =
    match member "facets" j with
    | Some (Arr l) ->
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* f = ints_of x in
          Some (f :: acc))
        l (Some [])
    | _ -> None
  in
  (* integrity: the artifact carries the digest of its own core *)
  let* check = member "check" j in
  let core = skeleton_core ~digest ~level ~pairs ~facets in
  let expect = Digest.to_hex (Digest.string (to_line (Obj core))) in
  let* () = if check = String expect then Some () else None in
  let ordered = List.map (fun (v, s) -> (v, Simplex.of_sorted s)) pairs in
  Some (ordered, facets)

(* One subdivision step under the store: replay a persisted skeleton when
   one matches, otherwise enumerate, build, and persist. *)
let next_level ~digest t k' =
  match !skel_store with
  | None -> subdivide t
  | Some st -> (
    match Option.bind (st.load ~digest ~level:k') (decode_skeleton ~digest ~level:k') with
    | Some step ->
      Wfc_obs.Metrics.incr c_skel_hits;
      Wfc_obs.Metrics.with_span "sds.skeleton.replay" @@ fun () ->
      build_level t step
    | None ->
      Wfc_obs.Metrics.incr c_skel_misses;
      Wfc_obs.Metrics.with_span "sds.subdivide" @@ fun () ->
      let step = enumerate t in
      let t' = build_level t step in
      (try st.save ~digest ~level:k' (encode_skeleton ~digest ~level:k' step)
       with _ -> ());
      t')

(* [iterate] memo: keyed by (base name, structural digest, level). The digest
   renders the base's facets with their colors, independent of simplex ids,
   so two distinct complexes that happen to share a name get distinct
   slots. The old
   name-only key let them evict each other's subdivision chains on every
   alternation (and served whichever chain was filed last, pending an
   [Chromatic.equal] re-check). The name stays in the key so derived complex
   names ("x'", "x''") never alias across differently-named equal bases.
   Levels share their [prev] chain, so solving a task at increasing levels
   re-subdivides only the top level instead of rebuilding from scratch. *)
let memo : (string * string * int, t) Hashtbl.t = Hashtbl.create 64

let clear_cache () = Hashtbl.reset memo

let memo_size () = Hashtbl.length memo

let structural_digest a =
  let cx = Chromatic.complex a in
  let facet f =
    String.concat ","
      (List.map (fun v -> Printf.sprintf "%d:%d" v (Chromatic.color a v)) (Simplex.to_list f))
  in
  Digest.to_hex
    (Digest.string (String.concat ";" (List.sort compare (List.map facet (Complex.facets cx)))))

let iterate a b =
  if b < 0 then invalid_arg "Sds.iterate: negative level";
  let name = Complex.name (Chromatic.complex a) in
  let digest = structural_digest a in
  let matches t = Chromatic.equal (base t) a in
  let rec cached k =
    if k < 0 then (0, of_chromatic a)
    else
      match Hashtbl.find_opt memo ((name, digest, k)) with
      | Some t when matches t ->
        Wfc_obs.Metrics.incr c_memo_hits;
        (k, t)
      | _ -> cached (k - 1)
  in
  let k0, t0 = cached b in
  Hashtbl.replace memo (name, digest, k0) t0;
  let rec go t k =
    if k = b then t
    else begin
      Wfc_obs.Metrics.incr c_memo_misses;
      let t' = next_level ~digest t (k + 1) in
      Hashtbl.replace memo (name, digest, k + 1) t';
      go t' (k + 1)
    end
  in
  go t0 k0

let standard ~dim ~levels = iterate (Chromatic.standard_simplex dim) levels

let facet_partition t facet =
  if t.prev = None then invalid_arg "Sds.facet_partition: level 0";
  if not (Complex.is_facet facet (Chromatic.complex (complex t))) then
    invalid_arg "Sds.facet_partition: not a facet";
  let vs = Simplex.to_list facet in
  (* Vertices of a facet sorted by snapshot size recover the blocks: block j
     holds the processes whose snapshot is the union of blocks 1..j. *)
  let by_size =
    List.sort
      (fun a b -> compare (Simplex.card (snap t a)) (Simplex.card (snap t b)))
      vs
  in
  let rec blocks = function
    | [] -> []
    | v :: _ as group ->
      let size = Simplex.card (snap t v) in
      let same, rest = List.partition (fun u -> Simplex.card (snap t u) = size) group in
      List.sort Stdlib.compare (List.map (own t) same) :: blocks rest
  in
  blocks by_size

let rec canonical_view t v =
  match t.prev with
  | None -> Printf.sprintf "#%d" v
  | Some p ->
    let members = List.map (canonical_view p) (Simplex.to_list (snap t v)) in
    Printf.sprintf "P%d{%s}" (color t v) (String.concat "," (List.sort Stdlib.compare members))

let count_facets ~dim ~levels =
  let a = Ordered_partition.count (dim + 1) in
  let rec pow acc k = if k = 0 then acc else pow (acc * a) (k - 1) in
  pow 1 levels

let vertex_of_view t ~color:c ~snap:s =
  let found = ref None in
  Hashtbl.iter
    (fun id s' ->
      if !found = None && Simplex.equal s s' && color t id = c then found := Some id)
    t.snap_tbl;
  !found
