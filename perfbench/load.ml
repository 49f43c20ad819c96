(* The closed-loop load generator: [clients] threads in this process, each
   sending its next request only after the previous answer arrived, over a
   fresh connection per request — the shape of [wfc query]. Every answer's
   verdict bytes are checked against the catalogue's golden digest.

   With tracing on, each request records spans around its connect, encode,
   write, read and decode steps under one request id; spans stay in memory
   until the run writes them out. *)

module Wire = Wfc_serve.Wire

let clients = 2

type item = { q : int; pair : int option }
(* [pair = Some p]: one of two copies of a question that both clients ask at
   the same moment (they meet at a barrier first), so the daemon sees a
   second ask while the first is in flight *)

type result = {
  r_q : int;
  latency : float;  (** seconds, connect to last byte *)
  source : string;  (** "store" / "computed" / "coalesced", or the failure *)
  ok : bool;  (** verdict bytes match the golden digest *)
  timing : Wire.timing option;
  response_bytes : int;
}

(* ---- spans ---- *)

type span = { rid : int; name : string; t0 : float; t1 : float; parent : string option }

type tracer = { mutable spans : span list; lock : Mutex.t }

let tracer () = { spans = []; lock = Mutex.create () }

let add_span tr s =
  Mutex.lock tr.lock;
  tr.spans <- s :: tr.spans;
  Mutex.unlock tr.lock

let timed tr ~rid ?parent name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  add_span tr { rid; name; t0; t1 = Unix.gettimeofday (); parent };
  v

let spans_json tr =
  Wfc_obs.Json.(
    Arr
      (List.rev_map
         (fun s ->
           Obj
             ([
                ("rid", Int s.rid);
                ("name", String s.name);
                ("start_us", Float (s.t0 *. 1e6));
                ("dur_us", Float ((s.t1 -. s.t0) *. 1e6));
              ]
             @ match s.parent with Some p -> [ ("parent", String p) ] | None -> []))
         tr.spans))

(* ---- one request ---- *)

let check (cat : Catalogue.t) q = function
  | Ok (Wire.Verdict { source; record; timing; _ }) ->
    let _, golden = cat.questions.(q) in
    (Wire.source_name source, Catalogue.matches golden (Catalogue.verdict_bytes record), timing)
  | Ok Wire.Shed -> ("shed", false, None)
  | Ok (Wire.Failed m) -> ("error: " ^ m, false, None)
  | Ok _ -> ("unexpected response", false, None)
  | Error e -> ("error: " ^ e, false, None)

let ask (cat : Catalogue.t) ~socket q =
  let spec = Catalogue.spec (fst cat.questions.(q)) in
  let t0 = Unix.gettimeofday () in
  let response =
    match Wfc_serve.Client.connect ~socket with
    | Error e -> Error e
    | Ok c ->
      let r = Wfc_serve.Client.query c spec in
      Wfc_serve.Client.close c;
      r
  in
  let latency = Unix.gettimeofday () -. t0 in
  let source, ok, timing = check cat q response in
  { r_q = q; latency; source; ok; timing; response_bytes = 0 }

(* The same exchange step by step through the public [Wire] functions.
   [Client.t] hides its descriptor, so the connect is [Client.connect]'s
   two syscalls. The encode span renders the request once more than
   [write_frame] does; that render is part of the tracing overhead. *)
let ask_traced tr (cat : Catalogue.t) ~socket ~rid q =
  let spec = Catalogue.spec (fst cat.questions.(q)) in
  let req = Wire.Query { spec; req_id = Some (Printf.sprintf "bench-%d" rid) } in
  let step name f = timed tr ~rid ~parent:"request" name f in
  let t0 = Unix.gettimeofday () in
  let response, raw =
    match
      step "client.connect" (fun () ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          try
            Unix.connect fd (Unix.ADDR_UNIX socket);
            fd
          with e ->
            Unix.close fd;
            raise e)
    with
    | exception Unix.Unix_error (e, _, _) -> (Error (Unix.error_message e), None)
    | fd ->
      let r =
        let j = Wire.request_to_json req in
        ignore (step "wire.encode" (fun () -> Wfc_obs.Json.to_string j));
        match step "wire.write" (fun () -> Wire.write_frame fd j) with
        | exception Unix.Unix_error (e, _, _) -> (Error (Unix.error_message e), None)
        | () -> (
          match step "wire.read" (fun () -> Wire.read_frame fd) with
          | Error e -> (Error e, None)
          | Ok j -> (step "wire.decode" (fun () -> Wire.response_of_json j), Some j))
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      r
  in
  let t1 = Unix.gettimeofday () in
  add_span tr { rid; name = "request"; t0; t1; parent = None };
  let source, ok, timing = check cat q response in
  let response_bytes =
    match raw with Some j -> String.length (Wfc_obs.Json.to_string j) | None -> 0
  in
  { r_q = q; latency = t1 -. t0; source; ok; timing; response_bytes }

(* ---- the closed loop ---- *)

type feed = {
  items : item array;
  mutable next : int;
  m : Mutex.t;
  met : Condition.t;
  arrived : (int, int) Hashtbl.t;  (** clients at each pair's barrier *)
}

(* Runs every item through [clients] threads; returns the results in
   completion order and the elapsed time from the first send to the last
   answer. A request id is the item's position in [items] plus [rid0]. The
   two copies of a pair are adjacent, so both are handed out together. *)
let run ?tracer ?(rid0 = 0) (cat : Catalogue.t) ~socket items =
  let f =
    { items; next = 0; m = Mutex.create (); met = Condition.create (); arrived = Hashtbl.create 16 }
  in
  let take () =
    Mutex.lock f.m;
    let r =
      if f.next >= Array.length f.items then None
      else (
        f.next <- f.next + 1;
        Some (f.next - 1, f.items.(f.next - 1)))
    in
    Mutex.unlock f.m;
    r
  in
  let barrier p =
    Mutex.lock f.m;
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt f.arrived p) in
    Hashtbl.replace f.arrived p n;
    if n >= 2 then Condition.broadcast f.met
    else
      while Hashtbl.find f.arrived p < 2 do
        Condition.wait f.met f.m
      done;
    Mutex.unlock f.m
  in
  let results = Array.make clients [] in
  let t0 = Unix.gettimeofday () in
  let worker i =
    let rec loop acc =
      match take () with
      | None -> results.(i) <- acc
      | Some (pos, it) ->
        Option.iter barrier it.pair;
        let r =
          match tracer with
          | None -> ask cat ~socket it.q
          | Some tr -> ask_traced tr cat ~socket ~rid:(rid0 + pos) it.q
        in
        loop (r :: acc)
    in
    loop []
  in
  let threads = List.init clients (Thread.create worker) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  (List.concat (Array.to_list results), elapsed)
