(* A fixed-capacity set of core ids, stored as a two-word bitset.

   Sharer sets are the hottest collection in the simulator: every
   memory access tests membership and every store-class transition
   counts and clears them.  Two OCaml ints cover 126 cores — well above
   the largest platform (the 80-core Xeon) — and keep all operations
   allocation-free, unlike the [int list] this replaces.  Counting a
   word and finding the index of a set bit take a fixed handful of
   instructions, however many bits are set and wherever they sit. *)

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

(* Set bits of a word, by a SWAR sum: bit pairs, then nibbles, then
   bytes, and one multiply adds the bytes into the top one.  On
   OCaml's 63-bit ints the top field is bit 62, the sign bit, so a
   negative word counts it like any other; no field can carry into the
   next, since a byte holds at most 8 and the total at most 63. *)
let popcount w =
  let w = w - ((w lsr 1) land 0x5555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (w * 0x0101010101010101) lsr 56

let cardinal s = popcount s.w0 + popcount s.w1

(* [de_bruijn.((b * de_bruijn_mul) lsr 57)] is [i] for the one-bit word
   [b = 1 lsl i]: the multiply shifts the de Bruijn constant left by
   [i], and its top six bits (of 63) differ for every i in 0..62.  A
   literal: module initialization copies a static block, and computes
   nothing. *)
let de_bruijn_mul = 0x03f79d71b4cb0a89

let de_bruijn =
  [| 0; 0; 47; 1; 56; 48; 27; 2; 60; 57; 49; 41; 37; 28; 16; 3;
     61; 54; 58; 35; 52; 50; 42; 21; 44; 38; 32; 29; 23; 17; 11; 4;
     62; 46; 55; 26; 59; 40; 36; 15; 53; 34; 51; 20; 43; 31; 22; 10;
     45; 25; 39; 14; 33; 19; 30; 9; 24; 13; 18; 8; 12; 7; 6; 5 |]

(* The index of the set bit of a one-bit word [b]: a multiply and a
   table load, whichever bit it is (the scans in [Cost_model] call it
   once per sharer). *)
let bit_index b = Array.unsafe_get de_bruijn ((b * de_bruijn_mul) lsr 57)

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
