(* Order statistics shared by every workload.

   [tail] is the benchmark's tail percentile: the highest order statistic
   that still has at least [beyond] (10) samples strictly above its rank.
   A fixed p99 would sit on a mode boundary when the slow mode is a ~1%
   share of the samples (the twig first-positive step is about 0.7% of
   serve-mix answers), and flip between the modes from run to run; the
   11th-largest sample always has ten samples behind it. *)

let beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear-interpolated quantile of a sorted array, [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = max 0 (min (n - 2) (int_of_float pos)) in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile_sorted (sorted xs) 0.5

(* Rank (0-based, ascending) of the tail sample in [n] samples, or [None]
   when fewer than [beyond + 1] samples exist. *)
let tail_rank n = if n <= beyond then None else Some (n - beyond - 1)

(* The percentile level the tail sample stands for: [rank + 1] of [n]
   samples lie at or below it. *)
let tail_level n =
  match tail_rank n with
  | None -> nan
  | Some r -> float_of_int (r + 1) /. float_of_int n

let tail xs =
  let a = sorted xs in
  match tail_rank (Array.length a) with None -> nan | Some r -> a.(r)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs
