(* Process-global registry. Counters are atomics so the hot paths
   (Simplex.intern, the CSP search, the runtime scheduler) pay one
   fetch-and-add per event; everything else (registration, histograms,
   spans, read-out) is cold and shares one mutex. *)

type counter = { cname : string; cell : int Atomic.t }

type histo = {
  hname : string;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type histogram = histo

type span = {
  sname : string;
  mutable calls : int;
  mutable total : float;
  mutable kids : span list; (* reverse first-opened order *)
}

let lock = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let histograms : (string, histo) Hashtbl.t = Hashtbl.create 16

(* The span forest hangs off a root sentinel shared by every domain; the
   path of open spans is keyed per (domain, sys-thread), so concurrent
   domains AND concurrent threads within one domain (the daemon's handler
   and solver threads) each nest spans without corrupting one another's
   LIFO discipline.
   Domain-local storage alone is not enough: sys-threads sharing a domain
   would interleave pushes and pops on one stack. Spans opened at a
   thread's top level become children of the shared root. *)
let span_root () = { sname = ""; calls = 0; total = 0.; kids = [] }

let root = ref (span_root ())

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let stacks : (int * int, span list ref) Hashtbl.t = Hashtbl.create 16

let stack_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

(* call under [locked] *)
let stack_of key =
  match Hashtbl.find_opt stacks key with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.replace stacks key s;
    s

(* ------------------------------------------------------------------ *)
(* counters                                                             *)
(* ------------------------------------------------------------------ *)

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { cname = name; cell = Atomic.make 0 } in
        Hashtbl.replace counters name c;
        c)

let incr c = ignore (Atomic.fetch_and_add c.cell 1)

let add c n =
  if n < 0 then invalid_arg (Printf.sprintf "Metrics.add %s: negative delta %d" c.cname n);
  ignore (Atomic.fetch_and_add c.cell n)

let value c = Atomic.get c.cell

let counter_name c = c.cname

(* ------------------------------------------------------------------ *)
(* histograms and timers                                                *)
(* ------------------------------------------------------------------ *)

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h = { hname = name; count = 0; sum = 0.; min_v = infinity; max_v = neg_infinity } in
        Hashtbl.replace histograms name h;
        h)

let observe h x =
  locked (fun () ->
      h.count <- h.count + 1;
      h.sum <- h.sum +. x;
      if x < h.min_v then h.min_v <- x;
      if x > h.max_v then h.max_v <- x)

let now_s () = Unix.gettimeofday ()

let time h f =
  let t0 = now_s () in
  Fun.protect ~finally:(fun () -> observe h (now_s () -. t0)) f

(* ------------------------------------------------------------------ *)
(* spans                                                                *)
(* ------------------------------------------------------------------ *)

let with_span name f =
  let key = stack_key () in
  let node, stack =
    locked (fun () ->
        let stack = stack_of key in
        let parent = match !stack with n :: _ -> n | [] -> !root in
        let k =
          match List.find_opt (fun k -> k.sname = name) parent.kids with
          | Some k -> k
          | None ->
            let k = { sname = name; calls = 0; total = 0.; kids = [] } in
            parent.kids <- k :: parent.kids;
            k
        in
        stack := k :: !stack;
        (k, stack))
  in
  let t0 = now_s () in
  Fun.protect
    ~finally:(fun () ->
      let dt = now_s () -. t0 in
      locked (fun () ->
          node.calls <- node.calls + 1;
          node.total <- node.total +. dt;
          (match !stack with
          | top :: rest when top == node -> stack := rest
          | _ -> assert false (* exits are LIFO per thread by construction *));
          (* a finished thread's key must not pin its stack forever — the
             daemon spawns a thread per connection *)
          if !stack = [] then Hashtbl.remove stacks key))
    f

let span_depth () =
  let key = stack_key () in
  locked (fun () ->
      match Hashtbl.find_opt stacks key with Some s -> List.length !s | None -> 0)

(* ------------------------------------------------------------------ *)
(* reset and read-out                                                   *)
(* ------------------------------------------------------------------ *)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
      Hashtbl.iter
        (fun _ h ->
          h.count <- 0;
          h.sum <- 0.;
          h.min_v <- infinity;
          h.max_v <- neg_infinity)
        histograms;
      root := span_root ();
      (* reset is specified to run with no spans open on any thread *)
      Hashtbl.reset stacks)

type histo_stats = { count : int; sum : float; min : float; max : float }

type span_node = {
  span_name : string;
  calls : int;
  total_s : float;
  children : span_node list;
}

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counters_now () =
  locked (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc) counters [])
  |> by_name

let histograms_now () =
  locked (fun () ->
      Hashtbl.fold
        (fun name (h : histo) acc ->
          if h.count = 0 then acc
          else
            (name, { count = h.count; sum = h.sum; min = h.min_v; max = h.max_v })
            :: acc)
        histograms [])
  |> by_name

let spans_now () =
  let rec freeze s =
    {
      span_name = s.sname;
      calls = s.calls;
      total_s = s.total;
      children = List.rev_map freeze s.kids;
    }
  in
  locked (fun () -> List.rev_map freeze !root.kids)
