(* Deterministic exponential backoff for simulated spin loops.  A small
   per-thread LCG de-synchronizes contenders without making simulation
   runs non-reproducible. *)

let default_min_delay = 64
let default_max_delay = 8192

(* The jitter stream as a plain int: its state for [seed], and the next
   state.  A spin loop that restarts its backoff at every acquisition
   can carry the bound and this state in its arguments instead of a
   record. *)
let first_rng seed = (seed * 2654435761) land 0x3FFFFFFF
let next_rng rng = ((rng * 1103515245) + 12345) land 0x3FFFFFFF

(* A delay under [bound], jittered to [bound/2, bound) by state [rng]. *)
let jitter ~bound rng =
  let half = max 1 (bound / 2) in
  half + (rng mod half)

type t = { max_delay : int; mutable delay : int; mutable rng : int }

let create ?(min_delay = default_min_delay) ?(max_delay = default_max_delay)
    ~seed () =
  { max_delay; delay = min_delay; rng = first_rng seed }

(* Next delay: current bound, jittered to [bound/2, bound), then the
   bound doubles up to [max_delay]. *)
let once t =
  let bound = t.delay in
  t.delay <- min t.max_delay (t.delay * 2);
  t.rng <- next_rng t.rng;
  jitter ~bound t.rng
