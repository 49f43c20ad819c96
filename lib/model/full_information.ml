type 'v view =
  | Vinit of { proc : int; input : 'v }
  | Vsnap of { proc : int; round : int; cells : 'v view option array }

type 'v iview =
  | Iinit of { proc : int; input : 'v }
  | Inode of { proc : int; seen : 'v iview list }

let atomic_k_shot ~procs ~k ~inputs =
  if Array.length inputs <> procs then invalid_arg "Full_information.atomic_k_shot: inputs size";
  Array.init procs (fun i ->
      Action.rounds k
        ~init:(Vinit { proc = i; input = inputs.(i) })
        (fun v round continue ->
          Action.Write
            ( v,
              fun () ->
                Action.Snapshot
                  (fun cells -> continue (Vsnap { proc = i; round = round + 1; cells })) ))
        Action.decide)

let iis_k_shot ~procs ~k ~inputs =
  if Array.length inputs <> procs then invalid_arg "Full_information.iis_k_shot: inputs size";
  Array.init procs (fun i ->
      Action.rounds k
        ~init:(Iinit { proc = i; input = inputs.(i) })
        (fun v level continue ->
          Action.Write_read
            {
              level;
              value = v;
              k = (fun { Action.seen; _ } -> continue (Inode { proc = i; seen }));
            })
        Action.decide)

let iis_participants ~procs ~k ~inputs ~participating =
  let all = iis_k_shot ~procs ~k ~inputs in
  Array.mapi
    (fun i a ->
      if List.mem i participating then a
      else Action.Decide (Iinit { proc = i; input = inputs.(i) }))
    all

let proc_of_iview = function
  | Iinit { proc; _ } -> proc
  | Inode { proc; _ } -> proc

let rec canonical_iview enc = function
  | Iinit { proc; input } ->
    ignore proc;
    enc input
  | Inode { proc; seen } ->
    let members = List.sort Stdlib.compare (List.map (canonical_iview enc) seen) in
    Printf.sprintf "P%d{%s}" proc (String.concat "," members)

let rec canonical_view enc = function
  | Vinit { proc; input } ->
    ignore proc;
    enc input
  | Vsnap { proc; round; cells } ->
    let parts =
      Array.to_list
        (Array.map (function None -> "_" | Some v -> canonical_view enc v) cells)
    in
    Printf.sprintf "P%d.%d[%s]" proc round (String.concat ";" parts)

let iview_procs_seen = function
  | Iinit { proc; _ } -> [ proc ]
  | Inode { seen; _ } -> List.sort Stdlib.compare (List.map proc_of_iview seen)
