(* A min-priority queue of timed events.  Ties are broken by insertion
   order so simulation runs are deterministic and FIFO-fair.

   The store is a 4-ary implicit min-heap whose arrays hold only ints:
   each entry's time, tie-break (push seq) and slot.  Half the levels of
   a binary heap, and the four children of a node sit in consecutive
   array slots, so a sift-down touches two cache lines per level
   instead of four scattered words.  The sifts hold the entry being
   placed aside and move each displaced entry into the hole it leaves,
   three int stores per level and no write barrier.  An event's
   closure (and an ordered queue's node) stays put in a slot table,
   written once at push; free slots are a stack, so a thread that
   re-queues its own runner gets back the slot it just freed, still
   holding that runner, and the write is skipped.  (A calendar-style
   near-future lane was tried here and reverted: at the queue sizes the
   simulator actually runs — tens of events — sift paths are 2–3
   levels, and the lane's binary search per push plus two-lane head
   comparison per pop cost more than they saved.)

   The heap is popped through a caller-owned [popped] cell, so the
   simulator's main loop moves millions of events without allocating:
   no event records, no [Some] wrappers.  The earliest queued time is
   cached in [next_t] and maintained by push/pop — the engine consults
   the queue head once per resumption to decide direct-running, which
   must cost one field read, not a heap inspection.

   An [ordered] queue replaces the insertion counter by ancestry nodes
   (see [precedes]).  The simulator uses one when waiters park exactly
   under faults: their elided polls never enter the queue, yet an event
   standing in for one must sort among same-time events where the
   polled event would have. *)

(* {2 Ancestry nodes}

   Literal polling orders same-time events by push order, and an event
   is pushed while its pusher runs, so push order is run order of the
   pushers, recursively: a node is its event's time, its index among
   its pusher's pushes, and the pusher.  A node gets a [n_rank] when its
   event runs (its place in run order); two run nodes compare by rank.

   A parked waiter's elided polls form a [chain]: a regular run of
   events, each pushed by the one before, the first by the node the
   waiter parked in ([c_park], at its reserved push index [c_seq]).
   Event [j >= 1] of a chain falls at [c_t1 + ((j-1)/2)(c_a+c_b)],
   plus [c_a] when [j] is even.  Chain events are not materialized:
   [virt] builds a node only for the one a wake pushes, and [precedes]
   walks chains arithmetically.

   A walk goes below a node that has run only against an unrun chain
   event of the same time, so ancestry older than every chain that can
   still be walked is dead weight: [prune] cuts it (see there). *)

type node = {
  n_time : int;
  n_seq : int;
      (* index among the pusher's pushes; a chain event's index in its
         chain instead (see [idx]) *)
  mutable n_parent : node;  (* the pusher ([nil] once pruned; unused by
                               chain nodes) *)
  mutable n_rank : int;  (* run order once run, -1 before *)
  n_chain : chain;  (* a chain event's chain, [no_chain] otherwise *)
  mutable n_later : node;  (* the next node to run after it, until pruned *)
}

and chain = {
  mutable c_park : node;  (* its birth; [nil] once retired *)
  mutable c_end : int;  (* time its wake ran; [max_int] until then *)
  c_seq : int;
  c_t1 : int;
  c_a : int;
  c_b : int;
  mutable c_later : chain;  (* the next chain born, until retired *)
}

let rec nil =
  { n_time = -1; n_seq = 0; n_parent = nil; n_rank = -1; n_chain = no_chain;
    n_later = nil }

and no_chain =
  { c_park = nil; c_end = 0; c_seq = 0; c_t1 = 0; c_a = 1; c_b = 1;
    c_later = no_chain }

(* A fresh top node: the pusher of everything pushed before the first
   event runs. *)
let make_root () =
  let rec r =
    { n_time = -1; n_seq = 0; n_parent = r; n_rank = 0; n_chain = no_chain;
      n_later = nil }
  in
  r

(* The time of event [j] of chain [c]. *)
let chain_time c j =
  c.c_t1 + ((j - 1) / 2 * (c.c_a + c.c_b)) + if j land 1 = 0 then c.c_a else 0

(* The node of event [j] of [c], for a wake to push. *)
let virt c j =
  { n_time = chain_time c j; n_seq = j; n_parent = nil; n_rank = -1;
    n_chain = c; n_later = nil }

(* A node's index in its chain, 0 for nodes outside chains. *)
let idx n = if n.n_chain == no_chain then 0 else n.n_seq

(* Does cursor a run before cursor b (same time) under literal polling?
   A cursor is event [j] of chain [c] when [j > 0] ([r] its node if
   materialized, else [nil]), or node [r] when [j = 0].  Walk both
   ancestries until the times differ, both nodes have run, or they
   share a pusher; two chains in lockstep are skipped to the nearer
   chain start in one step. *)
let precedes_cursor ra0 ca0 ja0 rb0 cb0 jb0 =
  let ra = ref ra0 and ca = ref ca0 and ja = ref ja0 in
  let rb = ref rb0 and cb = ref cb0 and jb = ref jb0 in
  let res = ref false and go = ref true in
  while !go do
    let ta = if !ja > 0 then chain_time !ca !ja else !ra.n_time in
    let tb = if !jb > 0 then chain_time !cb !jb else !rb.n_time in
    if ta <> tb then begin
      res := ta < tb;
      go := false
    end
    else if !ra.n_rank >= 0 && !rb.n_rank >= 0 then begin
      res := !ra.n_rank < !rb.n_rank;
      go := false
    end
    else if
      !ja > 1 && !jb > 1 && !ca != !cb
      && (let c1 = !ca and c2 = !cb in
          if !ja land 1 = !jb land 1 then c1.c_a = c2.c_a && c1.c_b = c2.c_b
          else c1.c_a = c2.c_b && c1.c_b = c2.c_a)
    then begin
      (* lockstep: both chains step back alike to the nearer start *)
      let m = Int.min !ja !jb - 1 in
      ja := !ja - m;
      jb := !jb - m;
      ra := nil;
      rb := nil
    end
    else begin
      (* step both cursors to their pushers; [sa]/[sb] are the push
         indices the walk leaves *)
      let sa = if !ja > 1 then 0 else if !ja = 1 then !ca.c_seq else !ra.n_seq in
      let sb = if !jb > 1 then 0 else if !jb = 1 then !cb.c_seq else !rb.n_seq in
      if !ja > 1 then begin
        ra := nil;
        ja := !ja - 1
      end
      else begin
        let n = if !ja = 1 then !ca.c_park else !ra.n_parent in
        if n == nil then invalid_arg "Event_queue.precedes: pruned ancestry";
        ra := n;
        ca := n.n_chain;
        ja := idx n
      end;
      if !jb > 1 then begin
        rb := nil;
        jb := !jb - 1
      end
      else begin
        let n = if !jb = 1 then !cb.c_park else !rb.n_parent in
        if n == nil then invalid_arg "Event_queue.precedes: pruned ancestry";
        rb := n;
        cb := n.n_chain;
        jb := idx n
      end;
      let same =
        if !ja > 0 && !jb > 0 then !ca == !cb && !ja = !jb
        else !ja = 0 && !jb = 0 && !ra == !rb
      in
      if same then begin
        res := sa < sb;
        go := false
      end
    end
  done;
  !res

let precedes a b =
  a != b && precedes_cursor a a.n_chain (idx a) b b.n_chain (idx b)

type t = {
  (* the heap, in heap order over [0, size): each event's time, its
     tie-break (push seq; unused by ordered queues) and its slot *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
      (* over [size, capacity): the free slots, the next one to take
         first *)
  mutable runs : (unit -> unit) array;
      (* by slot; a free slot keeps its last closure *)
  mutable nodes : node array;  (* by slot; ordered queues only *)
  mutable size : int;
  mutable next_seq : int;
  mutable next_t : int; (* cached [times.(0)]; [max_int] when empty *)
  ordered : bool;
  mutable cur : node;  (* the running node (initially a fresh root) *)
  mutable cur_pushes : int;  (* its pushes so far, reserved ones included *)
  (* run nodes not yet pruned, oldest first, linked by [n_later]; and
     chains not yet retired, linked by [c_later] *)
  mutable ran_first : node;
  mutable ran_last : node;
  mutable chain_first : chain;
  mutable chain_last : chain;
}

(* Caller-owned cell refilled by [pop_into]; [p_node] only by ordered
   queues. *)
type popped = {
  mutable p_time : int;
  mutable p_run : unit -> unit;
  mutable p_node : node;
}

let no_run () = ()
let make_popped () = { p_time = 0; p_run = no_run; p_node = nil }

(* The initial capacity.  A simulation usually queues about one event
   per thread, and [grow] doubles the arrays for more.  A new queue's
   four arrays allocate 4 x 49 words: the peak RSS of a workload of many
   short simulations (perf's [observed]) follows the GC's phase, and
   moves with any change in that figure. *)
let capacity = 48

let create ?(ordered = false) () =
  {
    times = Array.make capacity 0;
    seqs = Array.make capacity 0;
    slots = Array.init capacity Fun.id;
    runs = Array.make capacity no_run;
    nodes = (if ordered then Array.make capacity nil else [||]);
    size = 0;
    next_seq = 0;
    next_t = max_int;
    ordered;
    cur = (if ordered then make_root () else nil);
    cur_pushes = 0;
    ran_first = nil;
    ran_last = nil;
    chain_first = no_chain;
    chain_last = no_chain;
  }

let length t = t.size
let current t = t.cur

(* The next push of the running node, at [time]. *)
let child t ~time =
  let seq = t.cur_pushes in
  t.cur_pushes <- seq + 1;
  { n_time = time; n_seq = seq; n_parent = t.cur; n_rank = -1;
    n_chain = no_chain; n_later = nil }

(* Settle the event (time, seq, slot) at hole [i] or above it, moving
   each ancestor it pops before one level down.  On an unordered queue
   only a push lifts, and its seq is larger than every queued one, so
   times alone decide. *)
let sift_up t i time seq slot =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref i and go = ref true in
  while !go && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let tp = times.(p) in
    if
      tp > time
      || (tp = time && t.ordered && precedes t.nodes.(slot) t.nodes.(slots.(p)))
    then begin
      times.(!i) <- tp;
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else go := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Settle the event (time, seq, slot) at hole [i] or below it: while
   the earliest of the event and the hole's children is a child, that
   child moves up into the hole.  The event is the first candidate, and
   each child in array order replaces the candidate it pops before, so
   on an ordered queue the result depends only on these [precedes]
   answers, even for two nodes it leaves unordered. *)
let sift_down t i time seq slot =
  let times = t.times and seqs = t.seqs and slots = t.slots and n = t.size in
  let i = ref i and go = ref true in
  while !go do
    let first = (4 * !i) + 1 in
    if first >= n then go := false
    else begin
      let m = ref (-1) and tm = ref time and qm = ref seq and sm = ref slot in
      for c = first to Int.min (first + 3) (n - 1) do
        let tc = times.(c) in
        if
          tc < !tm
          || tc = !tm
             &&
             if t.ordered then precedes t.nodes.(slots.(c)) t.nodes.(!sm)
             else seqs.(c) < !qm
        then begin
          m := c;
          tm := tc;
          qm := seqs.(c);
          sm := slots.(c)
        end
      done;
      if !m < 0 then go := false
      else begin
        times.(!i) <- !tm;
        seqs.(!i) <- !qm;
        slots.(!i) <- !sm;
        i := !m
      end
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Double the capacity of a full queue; the new slots join the free
   stack. *)
let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0
  and seqs = Array.make (2 * cap) 0
  and slots = Array.init (2 * cap) Fun.id
  and runs = Array.make (2 * cap) no_run in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.runs 0 runs 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.runs <- runs;
  if t.ordered then begin
    let nodes = Array.make (2 * cap) nil in
    Array.blit t.nodes 0 nodes 0 cap;
    t.nodes <- nodes
  end

(* Queue [run] at [time] with tie-break [seq] and, on an ordered queue,
   node [n], in the free slot on top.  A popped slot keeps its closure,
   and a thread that re-queues its own runner gets back the slot it
   just freed, so the closure write is mostly skipped. *)
let insert t ~time ~seq run n =
  let i = t.size in
  if i = Array.length t.times then grow t;
  let slot = t.slots.(i) in
  if t.runs.(slot) != run then t.runs.(slot) <- run;
  if t.ordered then t.nodes.(slot) <- n;
  if time < t.next_t then t.next_t <- time;
  t.size <- i + 1;
  sift_up t i time seq slot

let push t ~time run =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  insert t ~time ~seq run nil

(* Push [run] at [n.n_time] on an ordered queue, sorted among same-time
   events by node [n] (see [precedes]). *)
let push_node t n run =
  if n.n_time < 0 then invalid_arg "Event_queue.push_node: negative time";
  insert t ~time:n.n_time ~seq:0 run n

(* Take heap entry [i], assuming i < size: its slot goes back on the
   free stack, and the last entry fills the hole and sifts down; then
   whatever is left at [i] sifts up, as the last entry may pop before
   the removed one's ancestors. *)
let remove_at t i =
  let last = t.size - 1 in
  let slot = t.slots.(i) in
  t.size <- last;
  if i < last then begin
    let time = t.times.(last) and seq = t.seqs.(last) in
    let moved = t.slots.(last) in
    t.slots.(last) <- slot;
    sift_down t i time seq moved;
    if i > 0 then sift_up t i t.times.(i) t.seqs.(i) t.slots.(i)
  end;
  t.next_t <- (if last > 0 then t.times.(0) else max_int)

(* Withdraw a queued event of an ordered queue by its node; no-op when
   it is not queued.  A linear scan: the queue holds about one event
   per thread. *)
let remove t n =
  let i = ref 0 in
  while !i < t.size && t.nodes.(t.slots.(!i)) != n do
    incr i
  done;
  if !i < t.size then remove_at t !i

let pop_into t (p : popped) =
  if t.size = 0 then false
  else begin
    let slot = t.slots.(0) in
    p.p_time <- t.times.(0);
    p.p_run <- t.runs.(slot);
    if t.ordered then p.p_node <- t.nodes.(slot);
    remove_at t 0;
    true
  end

(* Non-allocating variant for the simulator's hot path: one field read. *)
let next_time t = t.next_t

(* {2 Ancestry bookkeeping of an ordered queue} *)

(* A chain whose first event is the running node's next push. *)
let chain t ~t1 ~a ~b =
  let seq = t.cur_pushes in
  t.cur_pushes <- seq + 1;
  let c =
    { c_park = t.cur; c_end = max_int; c_seq = seq; c_t1 = t1; c_a = a;
      c_b = b; c_later = no_chain }
  in
  if t.chain_first == no_chain then t.chain_first <- c
  else t.chain_last.c_later <- c;
  t.chain_last <- c;
  c

(* Cut ancestry no walk can reach any more.  A walk that descends from
   a level at or after time [b] to one before it needs, at that lower
   level, an unrun chain event of a chain born before [b] and either
   unwoken or woken at [b] or later.  With no such chain, and [b] at
   most [now], nodes that ran before [b] are compared by rank at most,
   so their pushers can go.  Chains are born in time order: [b] is the
   birth of the first chain kept, and the longest prefix of woken
   chains whose wakes all ran before that birth (and [now]) retires,
   its park nodes with it. *)
let prune t ~now =
  (* the longest prefix of woken chains whose wakes ran before the
     next kept chain's birth *)
  let keep = ref t.chain_first and c = ref t.chain_first in
  let max_end = ref min_int in
  while !c != no_chain && !c.c_end < max_int do
    max_end := Int.max !max_end !c.c_end;
    c := !c.c_later;
    let born = if !c == no_chain then now else !c.c_park.n_time in
    if !max_end < Int.min now born then keep := !c
  done;
  while t.chain_first != !keep do
    let r = t.chain_first in
    t.chain_first <- r.c_later;
    r.c_park <- nil;
    r.c_later <- no_chain
  done;
  if t.chain_first == no_chain then t.chain_last <- no_chain;
  let b =
    if t.chain_first == no_chain then now
    else Int.min now t.chain_first.c_park.n_time
  in
  while t.ran_first != nil && t.ran_first.n_time < b do
    let n = t.ran_first in
    t.ran_first <- n.n_later;
    n.n_parent <- nil;
    n.n_later <- nil
  done;
  if t.ran_first == nil then t.ran_last <- nil

(* How many runs pass between two prunes. *)
let prune_every = 64

(* Node [n] starts running as the [rank]-th step.  A chain event
   running is its chain's wake: the chain's parked span ends. *)
let ran t n ~rank =
  n.n_rank <- rank;
  t.cur <- n;
  t.cur_pushes <- 0;
  if n.n_chain != no_chain then n.n_chain.c_end <- n.n_time;
  if t.ran_first == nil then t.ran_first <- n else t.ran_last.n_later <- n;
  t.ran_last <- n;
  if rank land (prune_every - 1) = 0 then prune t ~now:n.n_time
