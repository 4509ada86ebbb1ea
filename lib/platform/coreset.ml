(* A fixed-capacity set of core ids, stored as a two-word bitset.

   Sharer sets are the hottest collection in the simulator: every
   memory access tests membership and every store-class transition
   counts and clears them.  Two OCaml ints cover 126 cores — well above
   the largest platform (the 80-core Xeon) — and keep all operations
   allocation-free, unlike the [int list] this replaces. *)

type t = { mutable w0 : int; mutable w1 : int }

let capacity = 126

let check c =
  if c < 0 || c >= capacity then
    invalid_arg (Printf.sprintf "Coreset: core %d out of range" c)

let create () = { w0 = 0; w1 = 0 }
let clear s =
  s.w0 <- 0;
  s.w1 <- 0

let is_empty s = s.w0 = 0 && s.w1 = 0

let mem s c =
  check c;
  if c < 63 then s.w0 land (1 lsl c) <> 0 else s.w1 land (1 lsl (c - 63)) <> 0

let add s c =
  check c;
  if c < 63 then s.w0 <- s.w0 lor (1 lsl c)
  else s.w1 <- s.w1 lor (1 lsl (c - 63))

let remove s c =
  check c;
  if c < 63 then s.w0 <- s.w0 land lnot (1 lsl c)
  else s.w1 <- s.w1 land lnot (1 lsl (c - 63))

(* Kernighan popcount: one iteration per set bit, and sharer sets are
   usually tiny. *)
let popcount w =
  let n = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr n
  done;
  !n

let cardinal s = popcount s.w0 + popcount s.w1

let bit_index b =
  (* [b] is a one-bit word *)
  let i = ref 0 and b = ref b in
  while !b <> 1 do
    b := !b lsr 1;
    incr i
  done;
  !i

let iter_word f base w =
  let w = ref w in
  while !w <> 0 do
    let b = !w land (- !w) in
    f (base + bit_index b);
    w := !w land (!w - 1)
  done

(* Ascending core-id order. *)
let iter f s =
  iter_word f 0 s.w0;
  iter_word f 63 s.w1

let fold f s acc =
  let acc = ref acc in
  iter (fun c -> acc := f c !acc) s;
  !acc

let exists p s =
  try
    iter (fun c -> if p c then raise Exit) s;
    false
  with Exit -> true

let elements s = List.rev (fold (fun c acc -> c :: acc) s [])

let of_list l =
  let s = create () in
  List.iter (fun c -> add s c) l;
  s

let equal a b = a.w0 = b.w0 && a.w1 = b.w1
let copy s = { w0 = s.w0; w1 = s.w1 }
