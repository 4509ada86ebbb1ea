(* A min-priority queue of timed events.  Ties are broken by insertion
   order so simulation runs are deterministic and FIFO-fair.

   The store is a 4-ary implicit min-heap in struct-of-arrays layout:
   half the levels of the binary heap it replaces, and the four
   children of a node sit in consecutive array slots, so a sift-down
   touches two cache lines per level instead of four scattered words.
   (A calendar-style near-future lane was tried here and reverted: at
   the queue sizes the simulator actually runs — tens of events —
   sift paths are 2–3 levels, and the lane's binary search per push
   plus two-lane head comparison per pop cost more than they saved.)

   The heap is popped through a caller-owned [popped] cell, so the
   simulator's main loop moves millions of events without allocating:
   no event records, no [Some] wrappers.  The earliest queued time is
   cached in [next_t] and maintained by push/pop — the engine consults
   the queue head once per resumption to decide direct-running, which
   must cost one field read, not a heap inspection. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  mutable next_t : int; (* cached [times.(0)]; [max_int] when empty *)
}

(* Allocating view of a popped event, kept for tests and casual
   callers; the simulator uses [pop_into]. *)
type event = { time : int; seq : int; run : unit -> unit }

(* Caller-owned cell refilled by [pop_into]. *)
type popped = { mutable p_time : int; mutable p_run : unit -> unit }

let no_run () = ()
let make_popped () = { p_time = 0; p_run = no_run }

let create () =
  {
    times = Array.make 64 0;
    seqs = Array.make 64 0;
    runs = Array.make 64 no_run;
    size = 0;
    next_seq = 0;
    next_t = max_int;
  }

let length t = t.size

let before t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let rn = t.runs.(i) in
  t.runs.(i) <- t.runs.(j);
  t.runs.(j) <- rn

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let first = (4 * i) + 1 in
  if first < t.size then begin
    let last = Int.min (first + 3) (t.size - 1) in
    let smallest = ref i in
    for c = first to last do
      if before t c !smallest then smallest := c
    done;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end
  end

(* Grow copies only the live entries — the dead tail of the old arrays
   (cleared slots from popped events) is never touched. *)
let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0
  and seqs = Array.make (2 * cap) 0
  and runs = Array.make (2 * cap) no_run in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.runs 0 runs 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.runs <- runs

let push t ~time run =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if time < t.next_t then t.next_t <- time;
  t.times.(t.size) <- time;
  t.seqs.(t.size) <- seq;
  t.runs.(t.size) <- run;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Remove the root, assuming size > 0, and refresh the cached head. *)
let remove_root t =
  t.size <- t.size - 1;
  t.times.(0) <- t.times.(t.size);
  t.seqs.(0) <- t.seqs.(t.size);
  t.runs.(0) <- t.runs.(t.size);
  t.runs.(t.size) <- no_run;
  (* release the closure *)
  if t.size > 0 then begin
    sift_down t 0;
    t.next_t <- t.times.(0)
  end
  else t.next_t <- max_int

let pop_into t (p : popped) =
  if t.size = 0 then false
  else begin
    p.p_time <- t.times.(0);
    p.p_run <- t.runs.(0);
    remove_root t;
    true
  end

let pop t =
  if t.size = 0 then None
  else begin
    let e = { time = t.times.(0); seq = t.seqs.(0); run = t.runs.(0) } in
    remove_root t;
    Some e
  end

let min_time t = if t.size = 0 then None else Some t.next_t

(* Non-allocating variant for the simulator's hot path: one field read. *)
let next_time t = t.next_t
