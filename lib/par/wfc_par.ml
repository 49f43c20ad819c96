module Chan = Chan
module Deque = Deque
module Pool = Pool

let env_domains () =
  match Sys.getenv_opt "WFC_DOMAINS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 1 -> n
    | _ -> 1)

let current = ref (env_domains ())

let domains () = !current

let set_domains n = current := max 1 n

(* One global pool, lazily created and grown on demand. Guarded by a mutex
   so concurrent first-batches from two domains cannot double-spawn; in
   practice only the main domain sizes it. *)
let pool_lock = Mutex.create ()

let pool : Pool.t option ref = ref None

let shutdown () =
  Mutex.lock pool_lock;
  let p = !pool in
  pool := None;
  Mutex.unlock pool_lock;
  match p with Some p -> Pool.shutdown p | None -> ()

let () = at_exit shutdown

let obtain ~size =
  Mutex.lock pool_lock;
  let p =
    match !pool with
    | Some p when Pool.size p >= size -> p
    | prev ->
      (match prev with Some p -> Pool.shutdown p | None -> ());
      let p = Pool.create ~size in
      pool := Some p;
      p
  in
  Mutex.unlock pool_lock;
  p

let run_jobs ?domains:d thunks =
  let d = match d with None -> domains () | Some d -> d in
  if d <= 1 || Array.length thunks < 2 then
    Array.map (fun thunk -> thunk ()) thunks
  else
    let p = obtain ~size:d in
    Pool.run ~participants:d p thunks

let map_array ?domains f a = run_jobs ?domains (Array.map (fun x () -> f x) a)
