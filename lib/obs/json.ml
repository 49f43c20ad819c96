type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* emitter                                                              *)
(* ------------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The one emitter. [pretty] chooses the layout alone: a newline and two
   spaces per level before each item and before a non-empty container's
   closing bracket, and ": " after a key; without it no whitespace at all.
   Keys are sorted and floats printed "%.6f" either way, so the two
   renderings of one value always agree field for field. *)
let emit ~pretty buf j =
  let newline depth =
    Buffer.add_char buf '\n';
    for _ = 1 to depth do
      Buffer.add_string buf "  "
    done
  in
  let rec value depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6f" f)
      else Buffer.add_string buf "null"
    | String s -> escape_string buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then newline (depth + 1);
          value (depth + 1) x)
        items;
      if pretty then newline depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then newline (depth + 1);
          escape_string buf k;
          Buffer.add_char buf ':';
          if pretty then Buffer.add_char buf ' ';
          value (depth + 1) v)
        (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) fields);
      if pretty then newline depth;
      Buffer.add_char buf '}'
  in
  value 0 j

let to_string j =
  let buf = Buffer.create 256 in
  emit ~pretty:true buf j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* One value per line: the JSONL shape of the event log. *)
let to_line j =
  let buf = Buffer.create 128 in
  emit ~pretty:false buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parser                                                               *)
(* ------------------------------------------------------------------ *)

exception Bad of int * string

(* Wire documents, store records and reports nest under 10 levels; the cap
   bounds the parser's recursion, which a frame of 8 M '[' characters
   would otherwise drive for about 48 s. *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* UTF-8-encode a \uXXXX escape (surrogate pairs not recombined; each
     half encodes independently, which is enough for our own emitter). *)
  let add_codepoint buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let cp =
            try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
          in
          add_codepoint buf cp
        | _ -> fail "unknown escape");
        go ())
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail ("bad number " ^ lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> fail ("bad number " ^ lit)
  in
  (* steps into an array or object opened at [depth] enclosing levels *)
  let open_container depth =
    if depth >= max_depth then fail (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ();
    skip_ws ()
  in
  (* [depth]: the arrays and objects enclosing the value *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      open_container depth;
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (items [])
      end
    | Some '{' ->
      open_container depth;
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* access and comparison                                                *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> x = y
  | Arr xs, Arr ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    let sort l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
    let xs = sort xs and ys = sort ys in
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && equal v1 v2) xs ys
  | _ -> false
