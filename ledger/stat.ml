(** Order statistics over measured samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** Linear-interpolation quantile ([0 <= q <= 1]) of a non-empty list. *)
let quantile q xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> nan
  | 1 -> a.(0)
  | n ->
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(** [band q xs] is the mean of the quantiles from [q - 0.05] to
    [q + 0.05] in steps of 0.01: a percentile that does not jump when
    one value crosses a gap between clusters of values (the
    organizations' timing models cost 100 to 1600 ns per instruction in
    separate bands). *)
let band q xs =
  let qs = List.init 11 (fun i -> Float.min 1. (Float.max 0. (q -. 0.05 +. (0.01 *. float_of_int i)))) in
  List.fold_left (fun acc q -> acc +. quantile q xs) 0. qs /. 11.

(** First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
    computes them (its default "exclusive" method), so the spreads
    [compare] prints match that common tool. Needs at least two
    samples. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  let q k =
    let m = k * (n + 1) in
    let j = max 1 (min (n - 1) (m / 4)) in
    let delta = float_of_int (m - (j * 4)) /. 4. in
    a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
  in
  if n < 2 then (nan, nan) else (q 1, q 3)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.
