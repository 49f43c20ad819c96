(* Summary statistics of the benchmark. An empty sample gives nan, so a
   figure that was never measured fails the run instead of reading 0. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest rank *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

let mean = function [] -> nan | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* a / (a + b), nan when both are 0 *)
let ratio a b = if a + b = 0 then nan else float_of_int a /. float_of_int (a + b)
