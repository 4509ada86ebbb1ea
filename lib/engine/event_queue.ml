(* A min-priority queue of timed events.  Ties are broken by insertion
   order so simulation runs are deterministic and FIFO-fair.

   The store is a 4-ary implicit min-heap whose arrays hold only ints:
   each entry's key and slot.  The key packs the time above the
   tie-break (push seq), [time lsl seq_bits lor seq], so one int compare
   orders two entries.  Half the levels of a binary heap, and the four
   children of a node sit in consecutive array slots, so a sift-down
   reads four consecutive keys per level and picks the least with sign
   masks rather than data-dependent branches; the key array is padded
   with [max_int] past the last entry, so it reads all four without a
   bounds test.  The sifts hold the entry being placed aside and move
   each displaced entry into the hole it leaves, two int stores per
   level and no write barrier.  An event's closure (and an
   ordered queue's node) stays put in a slot table, written once at
   push; free slots are a stack, so a thread that re-queues its own
   runner gets back the slot it just freed, still holding that runner,
   and the write is skipped.  (A calendar-style near-future lane was
   tried here and reverted: at the queue sizes the simulator actually
   runs — tens of events — sift paths are 2–3 levels, and the lane's
   binary search per push plus two-lane head comparison per pop cost
   more than they saved.)

   The key's layout bounds two things, both checked: a time lies in
   [0, max_time] (2^41 - 1 cycles; the whole bench suite and perf's
   workloads push at most about 1.5e7), or the push raises
   [Invalid_argument]; and the seq field holds [seq_mask + 1] values
   (2^20), so the push counter is renumbered in order ([relabel]) once
   per 2^20 pushes, which raises if 2^20 events are queued.

   The heap is popped through a caller-owned [popped] cell, so the
   simulator's main loop moves millions of events without allocating:
   no event records, no [Some] wrappers.  The earliest queued time is
   cached in [next_t] and maintained by push/pop — the engine consults
   the queue head once per resumption to decide direct-running, which
   must cost one field read, not a heap inspection.  A thread that
   suspends on its own step is pushed and the next event popped in one
   call, [push_pop_into]: one sift-down from the root instead of a
   sift-up and a full sift-down.  A PC-sampling profile of one seed-1
   pass put the heap at 24.5% of [sparse_locks]' samples and 19.8% of
   [hot_lock]'s ([sift_down] alone 17.3% and 11.0%), where 93% of
   [sparse_locks]' 7.6M resumptions per pass pop the queue, at a mean
   depth of 33.

   An [ordered] queue replaces the insertion counter by ancestry nodes
   (see [precedes]).  The simulator uses one when waiters park exactly
   under faults: their elided polls never enter the queue, yet an event
   standing in for one must sort among same-time events where the
   polled event would have.  Its keys carry the time only, and the
   sifts break equal keys by [precedes]. *)

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

(* {2 The heap}

   An entry's key packs its time above its tie-break,
   [time lsl seq_bits lor seq], so int order on keys is (time, seq)
   order and a sift compares one int per entry.  An unordered queue's
   seq is its push counter, renumbered by [relabel] before it would
   overflow the field, so its keys are distinct; an ordered queue
   leaves the field 0 and breaks equal keys by [precedes].  Times take
   the bits above, up to [max_time]: keys then stay below [max_int],
   which pads the key array past the last entry. *)
let seq_bits = 20
let seq_mask = (1 lsl seq_bits) - 1
let time_bits = 61 - seq_bits
let max_time = (1 lsl time_bits) - 1

type t = {
  mutable keys : int array;
      (* over [0, size): the heap's keys, in heap order; over
         [size, capacity + 3): [max_int], so a sift reads all four
         children of a node without a bounds test *)
  mutable slots : int array;
      (* over [0, size): each entry's slot; over [size, capacity): the
         free slots, the next one to take first *)
  mutable runs : (unit -> unit) array;
      (* by slot; a free slot keeps its last closure *)
  mutable nodes : node array;  (* by slot; ordered queues only *)
  mutable size : int;
  mutable next_seq : int;
  mutable next_t : int; (* the head's time; [max_int] when empty *)
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
   three arrays allocate 68 + 2 x 65 words, about the 4 x 49 of the
   four-array heap before it: the peak RSS of a workload of many short
   simulations (perf's [observed]) follows the GC's phase, and moves
   with any change in that figure. *)
let capacity = 64

let create ?(ordered = false) () =
  {
    keys = Array.make (capacity + 3) max_int;
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

(* Settle the entry (key, slot) at hole [i] or above it, moving each
   ancestor it pops before one level down.  Keys are distinct on an
   unordered queue, so only an ordered one reaches [precedes]. *)
let sift_up t i key slot =
  let keys = t.keys and slots = t.slots in
  let i = ref i and go = ref true in
  while !go && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let kp = Array.unsafe_get keys p in
    if
      kp > key
      || kp = key
         && precedes t.nodes.(slot) t.nodes.(Array.unsafe_get slots p)
    then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else go := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set slots !i slot

(* An ordered queue's choice at one level of a sift-down, when the
   least key [mk] of the children from [c], first held by child [m], is
   at most the key of the entry being placed (key, slot): the entry a
   scan in array order keeps when each child replaces the candidate it
   pops before; -1 for the placed entry.  Only entries with the least
   key can win, and among them [precedes] decides, so the result
   depends only on those answers, even for two nodes it leaves
   unordered. *)
let[@inline never] ordered_pick t c mk m key slot =
  let keys = t.keys and slots = t.slots and nodes = t.nodes in
  let w = ref (if mk = key then -1 else m) in
  let ws = ref (if mk = key then slot else slots.(m)) in
  for j = (if mk = key then c else m + 1) to c + 3 do
    if keys.(j) = mk && precedes nodes.(slots.(j)) nodes.(!ws) then begin
      w := j;
      ws := slots.(j)
    end
  done;
  !w

(* Settle the entry (key, slot) at hole [i] or below it: while the
   least of its children's keys is below its own, that child moves up
   into the hole.  The least of four keys and its index come from sign
   masks ([d asr 62] is -1 when [d < 0], else 0; keys are non-negative,
   so a difference never overflows), not from data-dependent branches:
   the only branch per level is the loop's exit.  Equal keys go to the
   first in array order, and the padding past the last entry
   ([max_int]) never wins.  [sift_down] inlines this once per queue
   mode, so the unordered loop makes no call and keeps its state in
   registers. *)
let[@inline] sift_down_in t ~ordered i key slot =
  let keys = t.keys and slots = t.slots and n = t.size in
  let i = ref i and go = ref true in
  while !go do
    let c = (4 * !i) + 1 in
    if c >= n then go := false
    else begin
      let k0 = Array.unsafe_get keys c and k1 = Array.unsafe_get keys (c + 1) in
      let k2 = Array.unsafe_get keys (c + 2)
      and k3 = Array.unsafe_get keys (c + 3) in
      let d01 = k1 - k0 and d23 = k3 - k2 in
      let m01 = d01 asr 62 and m23 = d23 asr 62 in
      let ka = k0 + (d01 land m01) and kb = k2 + (d23 land m23) in
      let dab = kb - ka in
      let mab = dab asr 62 in
      let mk = ka + (dab land mab) in
      let ia = m01 land 1 and ib = 2 + (m23 land 1) in
      let m = c + ia + ((ib - ia) land mab) in
      let m =
        if ordered && mk <= key then ordered_pick t c mk m key slot
        else if mk < key then m
        else -1
      in
      if m < 0 then go := false
      else begin
        Array.unsafe_set keys !i mk;
        Array.unsafe_set slots !i (Array.unsafe_get slots m);
        i := m
      end
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set slots !i slot

let sift_down t i key slot =
  if t.ordered then sift_down_in t ~ordered:true i key slot
  else sift_down_in t ~ordered:false i key slot

(* Double the capacity of a full queue; the new slots join the free
   stack. *)
let grow t =
  let cap = Array.length t.slots in
  let keys = Array.make ((2 * cap) + 3) max_int
  and slots = Array.init (2 * cap) Fun.id
  and runs = Array.make (2 * cap) no_run in
  Array.blit t.keys 0 keys 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.runs 0 runs 0 cap;
  t.keys <- keys;
  t.slots <- slots;
  t.runs <- runs;
  if t.ordered then begin
    let nodes = Array.make (2 * cap) nil in
    Array.blit t.nodes 0 nodes 0 cap;
    t.nodes <- nodes
  end

(* Renumber the queued seqs 0, 1, ... in their order, so the push
   counter restarts below the field's limit.  Every two entries keep
   their order, so the heap stays valid.  Once per [seq_mask + 1]
   pushes; with that many events queued no renumbering fits. *)
let[@inline never] relabel t =
  let n = t.size and keys = t.keys in
  if n > seq_mask then invalid_arg "Event_queue.push: too many events queued";
  let by_seq =
    Array.init n (fun i -> ((keys.(i) land seq_mask) lsl seq_bits) lor i)
  in
  Array.sort Int.compare by_seq;
  Array.iteri
    (fun r e ->
      let i = e land seq_mask in
      keys.(i) <- keys.(i) land lnot seq_mask lor r)
    by_seq;
  t.next_seq <- n

(* Raise unless [0 <= time <= max_time]; [fn] names the caller. *)
let[@inline] check_time fn time =
  if time lsr time_bits <> 0 then
    invalid_arg ("Event_queue." ^ fn ^ ": time outside [0, max_time]")

(* The key of an unordered push at [time]: it takes the next seq. *)
let next_key t time =
  if t.next_seq > seq_mask then relabel t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (time lsl seq_bits) lor seq

(* Queue [run] under [key] and, on an ordered queue, node [n], in the
   free slot on top.  A popped slot keeps its closure, and a thread
   that re-queues its own runner gets back the slot it just freed, so
   the closure write is mostly skipped. *)
let insert t key run n =
  let i = t.size in
  if i = Array.length t.slots then grow t;
  let slot = t.slots.(i) in
  if t.runs.(slot) != run then t.runs.(slot) <- run;
  if t.ordered then t.nodes.(slot) <- n;
  let time = key lsr seq_bits in
  if time < t.next_t then t.next_t <- time;
  t.size <- i + 1;
  sift_up t i key slot

let push t ~time run =
  check_time "push" time;
  insert t (next_key t time) run nil

(* Push [run] at [n.n_time] on an ordered queue, sorted among same-time
   events by node [n] (see [precedes]). *)
let push_node t n run =
  check_time "push_node" n.n_time;
  insert t (n.n_time lsl seq_bits) run n

(* Take heap entry [i], assuming i < size: its slot goes back on the
   free stack, and the last entry fills the hole and sifts down; then
   whatever is left at [i] sifts up, as the last entry may pop before
   the removed one's ancestors. *)
let remove_at t i =
  let keys = t.keys and slots = t.slots in
  let last = t.size - 1 in
  let slot = slots.(i) and key = keys.(last) and moved = slots.(last) in
  t.size <- last;
  keys.(last) <- max_int;
  slots.(last) <- slot;
  if i < last then begin
    sift_down t i key moved;
    if i > 0 then sift_up t i keys.(i) slots.(i)
  end;
  t.next_t <- (if last > 0 then keys.(0) lsr seq_bits else max_int)

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
    p.p_time <- t.next_t;
    p.p_run <- t.runs.(slot);
    if t.ordered then p.p_node <- t.nodes.(slot);
    remove_at t 0;
    true
  end

(* [push t ~time run] then [pop_into t p] on an unordered queue, in one
   sift instead of a sift-up and a sift-down.  An event earlier than
   the head runs at once: pushed, its seq would be the largest queued,
   so it would pop first exactly when its time is earlier.  Otherwise
   the head pops and the event takes its place at the root and sifts
   down.  It takes the free slot [push] would and the head's slot goes
   back on the free stack, as [pop_into] would put it, so the slot
   table evolves as under the two calls. *)
let push_pop_into t ~time run (p : popped) =
  check_time "push_pop_into" time;
  if t.ordered then invalid_arg "Event_queue.push_pop_into: ordered queue";
  if time < t.next_t then begin
    p.p_time <- time;
    p.p_run <- run
  end
  else begin
    let key = next_key t time in
    let i = t.size in
    if i = Array.length t.slots then grow t;
    let slots = t.slots and runs = t.runs in
    let slot = Array.unsafe_get slots i and head = Array.unsafe_get slots 0 in
    if Array.unsafe_get runs slot != run then runs.(slot) <- run;
    p.p_time <- t.next_t;
    p.p_run <- Array.unsafe_get runs head;
    Array.unsafe_set slots i head;
    sift_down t 0 key slot;
    t.next_t <- Array.unsafe_get t.keys 0 lsr seq_bits
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
