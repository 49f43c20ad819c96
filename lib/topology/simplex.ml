(* Interned simplices over a hash-consed arena.

   A simplex is a strictly increasing [int array] of vertices, interned in a
   global table so that every vertex set has exactly one live representative.
   Consequences exploited throughout the library:

   - [equal]/[hash] are O(1) (the interned [id]);
   - [card]/[dim] are O(1) (array length);
   - [Tbl] keys on the id, so closure/carrier/delta caches cost one integer
     hash per probe instead of a polymorphic traversal;
   - set operations short-circuit to an existing representative whenever the
     result equals one of the operands, avoiding both allocation and an
     arena probe.

   The arena is one hash table under one [Mutex]: [intern] probes it and,
   on a miss, files the newcomer with id = the table's length, so ids are
   dense and contiguous. The process runs on one domain; the lock makes
   interning safe for the daemon's sys-threads, which build tasks while the
   solver thread subdivides. The faces cache is a second table, keyed by
   id, under the same lock. *)

type t = { id : int; verts : int array }

(* ------------------------------------------------------------------ *)
(* arena                                                                *)
(* ------------------------------------------------------------------ *)

module Key = struct
  type t = int array

  let equal a b =
    a == b
    || (Array.length a = Array.length b
       &&
       let n = Array.length a in
       let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
       go 0)

  let hash a =
    let h = ref 5381 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 33) lxor a.(i)
    done;
    !h land max_int
end

module Arena = Hashtbl.Make (Key)

let max_cached_faces_card = 16

let lock = Mutex.create ()

let arena : t Arena.t = Arena.create 4096

(* Kept out of the record on purpose: [faces s] contains [s], so a memo
   field would make polymorphic [=] on simplices diverge and
   [Hashtbl.hash] change once the faces are cached. *)
let faces_memo : (int, t list) Hashtbl.t = Hashtbl.create 4096

let locked f =
  Mutex.lock lock;
  let r = f () in
  Mutex.unlock lock;
  r

(* [intern verts] takes ownership of [verts] (never copied, never mutated
   afterwards). Ids never leak into results (orders are lexicographic on
   vertices), so outputs do not depend on which thread interned first. *)
let intern verts =
  locked (fun () ->
      match Arena.find_opt arena verts with
      | Some s -> s
      | None ->
        let s = { id = Arena.length arena; verts } in
        Arena.add arena verts s;
        s)

let empty = intern [||]

let arena_size () = locked (fun () -> Arena.length arena)

(* ------------------------------------------------------------------ *)
(* construction                                                         *)
(* ------------------------------------------------------------------ *)

let rec strictly_increasing_arr a i =
  i >= Array.length a - 1 || (a.(i) < a.(i + 1) && strictly_increasing_arr a (i + 1))

let of_list vs = intern (Array.of_list (List.sort_uniq Stdlib.compare vs))

let of_sorted vs =
  let a = Array.of_list vs in
  assert (strictly_increasing_arr a 0);
  intern a

let singleton v = intern [| v |]

(* ------------------------------------------------------------------ *)
(* O(1) observers                                                       *)
(* ------------------------------------------------------------------ *)

let id s = s.id

let card s = Array.length s.verts

let dim s = card s - 1

let is_empty s = card s = 0

let equal a b = a.id = b.id

let hash s = s.id

let min_vertex s =
  if is_empty s then invalid_arg "Simplex.min_vertex: empty simplex";
  s.verts.(0)

let max_vertex s =
  if is_empty s then invalid_arg "Simplex.max_vertex: empty simplex";
  s.verts.(card s - 1)

(* ------------------------------------------------------------------ *)
(* traversal                                                            *)
(* ------------------------------------------------------------------ *)

let to_list s = Array.to_list s.verts

let vertices = to_list

let iter f s = Array.iter f s.verts

let fold f init s = Array.fold_left f init s.verts

let for_all f s = Array.for_all f s.verts

let exists f s = Array.exists f s.verts

let nth s i = s.verts.(i)

(* Lexicographic on the vertex sequences — the same total order the previous
   sorted-list representation got from [Stdlib.compare], so every sorted
   output of the library is unchanged by the interning refactor. *)
let compare a b =
  if a.id = b.id then 0
  else
    let va = a.verts and vb = b.verts in
    let la = Array.length va and lb = Array.length vb in
    let n = if la < lb then la else lb in
    let rec go i =
      if i = n then Stdlib.compare la lb
      else
        let c = Stdlib.compare va.(i) vb.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let mem v s =
  let a = s.verts in
  let rec go lo hi =
    lo <= hi
    &&
    let mid = (lo + hi) / 2 in
    let x = a.(mid) in
    if x = v then true else if x < v then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length a - 1)

(* ------------------------------------------------------------------ *)
(* set algebra (sorted-array merges; results re-interned)               *)
(* ------------------------------------------------------------------ *)

let subset s t =
  s.id = t.id
  ||
  let a = s.verts and b = t.verts in
  let la = Array.length a and lb = Array.length b in
  la <= lb
  &&
  let rec go i j =
    if i = la then true
    else if lb - j < la - i then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) < b.(j) then false
    else go i (j + 1)
  in
  go 0 0

let union s t =
  if s.id = t.id then s
  else
    let a = s.verts and b = t.verts in
    let la = Array.length a and lb = Array.length b in
    if la = 0 then t
    else if lb = 0 then s
    else begin
      let buf = Array.make (la + lb) 0 in
      let rec go i j k =
        if i = la then begin
          Array.blit b j buf k (lb - j);
          k + lb - j
        end
        else if j = lb then begin
          Array.blit a i buf k (la - i);
          k + la - i
        end
        else if a.(i) = b.(j) then begin
          buf.(k) <- a.(i);
          go (i + 1) (j + 1) (k + 1)
        end
        else if a.(i) < b.(j) then begin
          buf.(k) <- a.(i);
          go (i + 1) j (k + 1)
        end
        else begin
          buf.(k) <- b.(j);
          go i (j + 1) (k + 1)
        end
      in
      let n = go 0 0 0 in
      (* |a ∪ b| = |a| iff b ⊆ a: reuse the interned operand *)
      if n = la then s else if n = lb then t else intern (Array.sub buf 0 n)
    end

let inter s t =
  if s.id = t.id then s
  else
    let a = s.verts and b = t.verts in
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then empty
    else begin
      let buf = Array.make (if la < lb then la else lb) 0 in
      let rec go i j k =
        if i = la || j = lb then k
        else if a.(i) = b.(j) then begin
          buf.(k) <- a.(i);
          go (i + 1) (j + 1) (k + 1)
        end
        else if a.(i) < b.(j) then go (i + 1) j k
        else go i (j + 1) k
      in
      let n = go 0 0 0 in
      if n = 0 then empty
      else if n = la then s
      else if n = lb then t
      else intern (Array.sub buf 0 n)
    end

let diff s t =
  if s.id = t.id then empty
  else
    let a = s.verts and b = t.verts in
    let la = Array.length a and lb = Array.length b in
    if la = 0 then empty
    else if lb = 0 then s
    else begin
      let buf = Array.make la 0 in
      let rec go i j k =
        if i = la then k
        else if j = lb then begin
          Array.blit a i buf k (la - i);
          k + la - i
        end
        else if a.(i) = b.(j) then go (i + 1) (j + 1) k
        else if a.(i) < b.(j) then begin
          buf.(k) <- a.(i);
          go (i + 1) j (k + 1)
        end
        else go i (j + 1) k
      in
      let n = go 0 0 0 in
      if n = 0 then empty else if n = la then s else intern (Array.sub buf 0 n)
    end

let remove v s =
  if not (mem v s) then s
  else
    let a = s.verts in
    let n = Array.length a in
    let buf = Array.make (n - 1) 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if a.(i) <> v then begin
        buf.(!k) <- a.(i);
        incr k
      end
    done;
    intern buf

let add v s =
  if mem v s then s
  else
    let a = s.verts in
    let n = Array.length a in
    let buf = Array.make (n + 1) 0 in
    let k = ref 0 in
    let placed = ref false in
    for i = 0 to n - 1 do
      if (not !placed) && a.(i) > v then begin
        buf.(!k) <- v;
        incr k;
        placed := true
      end;
      buf.(!k) <- a.(i);
      incr k
    done;
    if not !placed then buf.(n) <- v;
    intern buf

(* ------------------------------------------------------------------ *)
(* faces                                                                *)
(* ------------------------------------------------------------------ *)

let enumerate_faces s =
  let a = s.verts in
  let n = Array.length a in
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let c = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then incr c
    done;
    let buf = Array.make !c 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        buf.(!k) <- a.(i);
        incr k
      end
    done;
    out := intern buf :: !out
  done;
  !out

let faces s =
  let n = card s in
  if n = 0 then []
  else if n > max_cached_faces_card then enumerate_faces s
  else
    match locked (fun () -> Hashtbl.find_opt faces_memo s.id) with
    | Some fs -> fs
    | None ->
      (* enumerated outside the lock, which [intern] takes; a racing thread
         may enumerate too, and the first list filed is the one returned *)
      let fs = enumerate_faces s in
      locked (fun () ->
          match Hashtbl.find_opt faces_memo s.id with
          | Some fs -> fs
          | None ->
            Hashtbl.add faces_memo s.id fs;
            fs)

let faces_memo_size () = locked (fun () -> Hashtbl.length faces_memo)

let proper_faces s = List.filter (fun f -> f.id <> s.id) (faces s)

let facets s =
  let a = s.verts in
  let n = Array.length a in
  List.init n (fun drop ->
      let buf = Array.make (n - 1) 0 in
      for i = 0 to n - 2 do
        buf.(i) <- a.(if i < drop then i else i + 1)
      done;
      intern buf)

let subsets_of_card k s =
  let rec choose k = function
    | _ when k = 0 -> [ [] ]
    | [] -> []
    | v :: rest ->
      let with_v = List.map (fun sub -> v :: sub) (choose (k - 1) rest) in
      with_v @ choose k rest
  in
  if k < 0 then []
  else List.map (fun vs -> intern (Array.of_list vs)) (choose k (to_list s))

(* ------------------------------------------------------------------ *)
(* printing and containers                                              *)
(* ------------------------------------------------------------------ *)

let to_string s =
  "{" ^ String.concat "," (List.map string_of_int (to_list s)) ^ "}"

let pp ppf s = Format.pp_print_string ppf (to_string s)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
