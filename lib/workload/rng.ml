(* A small deterministic PRNG (splitmix64-style) so that workloads are
   reproducible across runs and independent of the global [Random]
   state.

   The 64-bit state lives as two untagged 32-bit halves rather than a
   boxed [int64]: every [int64] below is a function-local temporary the
   compiler keeps unboxed, so drawing a number allocates nothing — this
   was the last per-operation allocation in the ssht/kvs benchmark hot
   loops.  The generated sequence is bit-identical to the boxed
   implementation it replaces, so no workload schedule moves. *)

type t = { mutable hi : int; mutable lo : int } (* state bits 63–32 / 31–0 *)

let golden = 0x9E3779B97F4A7C15L
let mask32 = 0xFFFFFFFFL

let create ~seed =
  let s = Int64.of_int ((seed * 2654435761) lor 1) in
  {
    hi = Int64.to_int (Int64.shift_right_logical s 32);
    lo = Int64.to_int (Int64.logand s mask32);
  }

(* Advance the state and mix out the next raw 64-bit draw.  Inlined into
   each entry point so the state round-trips through unboxed locals. *)
let[@inline always] next_int64 t =
  let s =
    Int64.add
      (Int64.logor
         (Int64.shift_left (Int64.of_int t.hi) 32)
         (Int64.of_int t.lo))
      golden
  in
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int (Int64.logand s mask32);
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.logand (next_int64 t) Int64.max_int) (Int64.of_int bound))

(* The 53 bits [float] scales into [0, 1): [float t < p] iff
   [bits53 t < ceil (p * 2^53)]. *)
let bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

(* Uniform float in [0, 1). *)
let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992. (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Skip [n] draws: the state advances by [golden] per draw, so [n] draws
   move it by [n * golden] (mod 2^64) whatever they were used for. *)
let advance t n =
  if n < 0 then invalid_arg "Rng.advance: negative count";
  let s =
    Int64.add
      (Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo))
      (Int64.mul (Int64.of_int n) golden)
  in
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int (Int64.logand s mask32)

let copy t = { hi = t.hi; lo = t.lo }

let blit ~src ~dst =
  dst.hi <- src.hi;
  dst.lo <- src.lo
