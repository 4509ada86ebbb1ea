(* Ring-buffer trace recorder.  See trace.mli for the contract.

   The sink lives in domain-local storage, like the engine's perf
   counters: each pool domain traces the job it is currently executing
   into its own buffer, so concurrent jobs never interleave events and
   per-job traces merge deterministically in submission order.

   Two stores per trace:

   - the ring of events, capped at [cap] (grown geometrically up to
     it): enough to reconstruct timelines and per-lock profiles, cheap
     enough to leave on for whole figure sections;

   - aggregate counters bumped on every emission (plus local-hit and
     elided-probe notes that record no event at all): these never
     drop, so totals reconcile exactly with [Sim.perf] whatever the
     ring did.

   The ring is one int array, [width] ints per event, like [Memory]'s
   flat line table: the timestamp, a head word, the tid and five
   payload ints.  The head word holds the event's kind in bits 0-3 and
   its small fields above them:

   - a transfer: the op (bits 4-6), the pre and post states (7-9,
     10-12), the distance rank (13-15), [rq_dir] (16) and the core
     (17 up, signed);
   - an acquisition: its handoff distance rank plus one, 0 for the
     lock's first acquisition (4-6);
   - a fault: its kind (4-5).

   The payload ints, by kind: a spawn's core; a wait's lock; an
   acquisition's lock and wait; a release's lock and held time; a
   transfer's address, latency, service, queued and rq cycles; a park's
   or wake's address; a fault's cycles; a message's channel.  Payload
   ints a kind does not use keep whatever was there.  So an emitter
   writes ints into an array it already holds: it allocates nothing,
   and the ring holds no pointer for the GC to promote or scan. *)

open Ssync_platform

type fault_kind = Jitter | Preempt | Crash

type totals = {
  t_emitted : int;
  t_acquires : int;
  t_releases : int;
  t_xfers : int;
  t_xfer_cy : int;
  t_queued_cy : int;
  t_local : int;
  t_local_cy : int;
  t_elided : int;
  t_elided_cy : int;
  t_parks : int;
  t_wakes : int;
  t_faults : int;
  t_sends : int;
  t_recvs : int;
}

type t = {
  cap : int;  (* events *)
  mutable ring : int array;  (* [width] ints per event *)
  mutable w : int;  (* offset of the next event's ints *)
  mutable n : int; (* total emitted since creation *)
  mutable base : int; (* timestamp offset of the current epoch *)
  mutable max_ts : int;
  mutable cur_tid : int;
  mutable plat : string;
  mutable lock_names : string array;
  mutable n_locks : int;
  mutable chan_names : string array;
  mutable n_chans : int;
  (* aggregates *)
  mutable a_acq : int;
  mutable a_rel : int;
  mutable a_xfer : int;
  mutable a_xfer_cy : int;
  mutable a_queued_cy : int;
  mutable a_local : int;
  mutable a_local_cy : int;
  mutable a_elided : int;
  mutable a_elided_cy : int;
  mutable a_park : int;
  mutable a_wake : int;
  mutable a_fault : int;
  mutable a_send : int;
  mutable a_recv : int;
  a_rq_link : int array; (* resource-queued cycles charged to links, by
                            Cost_model.rank_of_class of the transfer *)
  a_rq_dir : int array; (* same, charged to home directories *)
}

let width = 8
let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    cap = capacity;
    ring = Array.make (Int.min capacity 1024 * width) 0;
    w = 0;
    n = 0;
    base = 0;
    max_ts = 0;
    cur_tid = -1;
    plat = "";
    lock_names = [||];
    n_locks = 0;
    chan_names = [||];
    n_chans = 0;
    a_acq = 0;
    a_rel = 0;
    a_xfer = 0;
    a_xfer_cy = 0;
    a_queued_cy = 0;
    a_local = 0;
    a_local_cy = 0;
    a_elided = 0;
    a_elided_cy = 0;
    a_park = 0;
    a_wake = 0;
    a_fault = 0;
    a_send = 0;
    a_recv = 0;
    a_rq_link = Array.make Cost_model.n_ranks 0;
    a_rq_dir = Array.make Cost_model.n_ranks 0;
  }

let sink_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = Domain.DLS.get sink_key

let start ?capacity () =
  let tr = create ?capacity () in
  Domain.DLS.set sink_key (Some tr);
  tr

let stop () =
  let c = current () in
  Domain.DLS.set sink_key None;
  c

let set_tid t tid = t.cur_tid <- tid
let cur_tid t = t.cur_tid
let set_platform t name = t.plat <- name
let platform t = t.plat

(* Successive simulations in one job each restart virtual time at 0;
   offsetting every epoch past the previous one keeps each (job,
   thread) track monotone, which the Chrome exporter relies on. *)
let new_epoch t =
  t.base <- t.max_ts;
  t.cur_tid <- -1

let register names n name =
  let arr = !names in
  let len = Array.length arr in
  if !n = len then begin
    let bigger = Array.make (max 8 (2 * len)) "" in
    Array.blit arr 0 bigger 0 len;
    names := bigger
  end;
  !names.(!n) <- name;
  let id = !n in
  n := id + 1;
  id

let new_lock t name =
  let names = ref t.lock_names and n = ref t.n_locks in
  let id = register names n name in
  t.lock_names <- !names;
  t.n_locks <- !n;
  id

let lock_name t id =
  if id < 0 || id >= t.n_locks then Printf.sprintf "lock#%d" id
  else t.lock_names.(id)

let new_chan t name =
  let names = ref t.chan_names and n = ref t.n_chans in
  let id = register names n name in
  t.chan_names <- !names;
  t.n_chans <- !n;
  id

let chan_name t id =
  if id < 0 || id >= t.n_chans then Printf.sprintf "chan#%d" id
  else t.chan_names.(id)

let note_local t ~cycles =
  t.a_local <- t.a_local + 1;
  t.a_local_cy <- t.a_local_cy + cycles

let note_elided t ~count ~cycles =
  t.a_elided <- t.a_elided + count;
  t.a_elided_cy <- t.a_elided_cy + cycles

(* ------------------------------ ring ------------------------------- *)

type kind = Thread | Wait | Acq | Rel | Xfer | Park | Wake | Fault | Send | Recv

(* Kind codes, in [kind]'s declaration order. *)
let c_thread = 0
let c_wait = 1
let c_acq = 2
let c_rel = 3
let c_xfer = 4
let c_park = 5
let c_wake = 6
let c_fault = 7
let c_send = 8
let c_recv = 9
let kinds = [| Thread; Wait; Acq; Rel; Xfer; Park; Wake; Fault; Send; Recv |]
let kind h = kinds.(h land 15)

(* The ring filled its array: double the array while it is below
   [cap] events (the events sit in emission order from offset 0, since
   none was overwritten yet), else wrap onto the oldest event. *)
let[@inline never] wrap t =
  let len = Array.length t.ring in
  if len / width < t.cap then begin
    let bigger = Array.make (Int.min t.cap (2 * len / width) * width) 0 in
    Array.blit t.ring 0 bigger 0 len;
    t.ring <- bigger
  end
  else t.w <- 0

(* Claim the next event's ints, write its timestamp, head and tid and
   return its offset.  The array's length is a multiple of [width], so
   the event's [width] ints are in bounds. *)
let[@inline] claim t ~ts head tid =
  let ts = t.base + Int.max 0 ts in
  if ts > t.max_ts then t.max_ts <- ts;
  if t.w = Array.length t.ring then wrap t;
  let o = t.w and r = t.ring in
  t.w <- o + width;
  t.n <- t.n + 1;
  Array.unsafe_set r o ts;
  Array.unsafe_set r (o + 1) head;
  Array.unsafe_set r (o + 2) tid;
  o

(* An event with two payload ints (the second ignored by one-int
   kinds). *)
let[@inline] put t ~ts head tid p0 p1 =
  let o = claim t ~ts head tid in
  let r = t.ring in
  Array.unsafe_set r (o + 3) p0;
  Array.unsafe_set r (o + 4) p1

let thread t ~ts ~tid ~core = put t ~ts c_thread tid core 0
let wait t ~ts ~tid ~lock = put t ~ts c_wait tid lock 0

let acq t ~ts ~tid ~lock ~wait ~handoff =
  t.a_acq <- t.a_acq + 1;
  put t ~ts (c_acq lor ((handoff + 1) lsl 4)) tid lock wait

let rel t ~ts ~tid ~lock ~held =
  t.a_rel <- t.a_rel + 1;
  put t ~ts c_rel tid lock held

let park t ~ts ~tid ~addr =
  t.a_park <- t.a_park + 1;
  put t ~ts c_park tid addr 0

let wake t ~ts ~tid ~addr =
  t.a_wake <- t.a_wake + 1;
  put t ~ts c_wake tid addr 0

let fault_code = function Jitter -> 0 | Preempt -> 1 | Crash -> 2
let fault_kinds = [| Jitter; Preempt; Crash |]

let fault t ~ts ~tid ~kind ~cycles =
  t.a_fault <- t.a_fault + 1;
  put t ~ts (c_fault lor (fault_code kind lsl 4)) tid cycles 0

let send t ~ts ~tid ~chan =
  t.a_send <- t.a_send + 1;
  put t ~ts c_send tid chan 0

let recv t ~ts ~tid ~chan =
  t.a_recv <- t.a_recv + 1;
  put t ~ts c_recv tid chan 0

let op_code : Arch.memop -> int = function
  | Load -> 0
  | Store -> 1
  | Cas -> 2
  | Fai -> 3
  | Tas -> 4
  | Swap -> 5

let ops = Arch.[| Load; Store; Cas; Fai; Tas; Swap |]
let core_shift = 17
let max_core = (1 lsl (Sys.int_size - core_shift - 1)) - 1
let min_core = -max_core - 1

let[@inline] xfer_head ~core ~op ~pre ~post ~dist ~rq_dir =
  c_xfer
  lor (op_code op lsl 4)
  lor (Arch.cstate_index pre lsl 7)
  lor (Arch.cstate_index post lsl 10)
  lor (Cost_model.rank_of_class dist lsl 13)
  lor ((if rq_dir then 1 else 0) lsl 16)
  lor (core lsl core_shift)

(* Head-word fields. *)
let head_op h = ops.((h lsr 4) land 7)
let head_pre h = Arch.cstate_of_index.((h lsr 7) land 7)
let head_post h = Arch.cstate_of_index.((h lsr 10) land 7)
let head_rank h = (h lsr 13) land 7
let head_dist h = Cost_model.class_of_rank.(head_rank h)
let head_rq_dir h = h land (1 lsl 16) <> 0
let head_core h = h asr core_shift

let xfer t ~ts ~tid ~addr ~lat ~service ~queued ~rq head =
  let o = claim t ~ts head tid in
  let r = t.ring in
  Array.unsafe_set r (o + 3) addr;
  Array.unsafe_set r (o + 4) lat;
  Array.unsafe_set r (o + 5) service;
  Array.unsafe_set r (o + 6) queued;
  Array.unsafe_set r (o + 7) rq;
  t.a_xfer <- t.a_xfer + 1;
  t.a_xfer_cy <- t.a_xfer_cy + lat;
  t.a_queued_cy <- t.a_queued_cy + queued;
  if rq > 0 then begin
    let arr = if head_rq_dir head then t.a_rq_dir else t.a_rq_link in
    let rank = head_rank head in
    arr.(rank) <- arr.(rank) + rq
  end

let head_handoff h = ((h lsr 4) land 7) - 1
let head_fault h = fault_kinds.((h lsr 4) land 3)
let n_xfer_keys = 1 lsl 12
let xfer_key h = (h lsr 4) land (n_xfer_keys - 1)
let ring t = t.ring
let length t = Int.min t.n (Array.length t.ring / width)
let dropped t = Int.max 0 (t.n - (Array.length t.ring / width))

let iter_offsets t f =
  let len = Array.length t.ring in
  (* once the ring wrapped, the oldest event is the next to go *)
  let o = ref (if t.n <= len / width then 0 else t.w mod len) in
  for _ = 1 to length t do
    f !o;
    o := !o + width;
    if !o = len then o := 0
  done

(* Resource-queued wait cycles by distance rank: [(links, dirs)].
   Aggregate counters (never drop with the ring), so the profiler's
   interconnect table reconciles exactly against
   [Stats.link_queued_cycles] whatever the ring capacity did. *)
let rq_by_rank t = (t.a_rq_link, t.a_rq_dir)

let totals t =
  {
    t_emitted = t.n;
    t_acquires = t.a_acq;
    t_releases = t.a_rel;
    t_xfers = t.a_xfer;
    t_xfer_cy = t.a_xfer_cy;
    t_queued_cy = t.a_queued_cy;
    t_local = t.a_local;
    t_local_cy = t.a_local_cy;
    t_elided = t.a_elided;
    t_elided_cy = t.a_elided_cy;
    t_parks = t.a_park;
    t_wakes = t.a_wake;
    t_faults = t.a_fault;
    t_sends = t.a_send;
    t_recvs = t.a_recv;
  }
