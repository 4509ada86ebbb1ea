(* Order statistics of host-time samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The nearest-rank [q]-quantile of [xs], provided at least ten samples
   lie beyond it; [None] when there are too few samples to say. *)
let tail_percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  if rank < 1 || n - rank < 10 then None else Some a.(rank - 1)
