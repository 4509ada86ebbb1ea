(* Ring-buffer trace recorder.  See trace.mli for the contract.

   The sink lives in domain-local storage, like the engine's perf
   counters: each pool domain traces the job it is currently executing
   into its own buffer, so concurrent jobs never interleave events and
   per-job traces merge deterministically in submission order.

   Two stores per trace:

   - the ring of typed events, capped at [cap] (grown geometrically up
     to it): enough to reconstruct timelines and per-lock profiles,
     cheap enough to leave on for whole figure sections;

   - aggregate counters bumped on every emission (plus local-hit and
     elided-probe notes that record no event at all): these never
     drop, so totals reconcile exactly with [Sim.perf] whatever the
     ring did. *)

open Ssync_platform

type fault_kind = Jitter | Preempt | Crash

type event =
  | E_thread of { tid : int; core : int }
  | E_wait of { tid : int; lock : int }
  | E_acq of { tid : int; lock : int; wait : int; dist : Arch.distance option }
  | E_rel of { tid : int; lock : int; held : int }
  | E_xfer of {
      tid : int;
      core : int;
      op : Arch.memop;
      addr : int;
      pre : Arch.cstate;
      post : Arch.cstate;
      dist : Arch.distance;
      lat : int;
      service : int;
      queued : int;
      rq : int;  (* interconnect-resource share of [queued] *)
      rq_dir : bool;  (* [rq] charged to the home directory, not a link *)
    }
  | E_park of { tid : int; addr : int }
  | E_wake of { tid : int; addr : int }
  | E_fault of { tid : int; kind : fault_kind; cycles : int }
  | E_send of { tid : int; chan : int }
  | E_recv of { tid : int; chan : int }

type entry = { ts : int; ev : event }

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
  cap : int;
  mutable buf : entry array;
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

let requested = ref false

let dummy = { ts = 0; ev = E_thread { tid = 0; core = 0 } }
let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    cap = capacity;
    buf = Array.make (min capacity 1024) dummy;
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

let emit t ~ts ev =
  let ts = t.base + max 0 ts in
  if ts > t.max_ts then t.max_ts <- ts;
  (match ev with
  | E_thread _ | E_wait _ -> ()
  | E_acq _ -> t.a_acq <- t.a_acq + 1
  | E_rel _ -> t.a_rel <- t.a_rel + 1
  | E_xfer x ->
      t.a_xfer <- t.a_xfer + 1;
      t.a_xfer_cy <- t.a_xfer_cy + x.lat;
      t.a_queued_cy <- t.a_queued_cy + x.queued;
      if x.rq > 0 then begin
        let r = Cost_model.rank_of_class x.dist in
        let arr = if x.rq_dir then t.a_rq_dir else t.a_rq_link in
        arr.(r) <- arr.(r) + x.rq
      end
  | E_park _ -> t.a_park <- t.a_park + 1
  | E_wake _ -> t.a_wake <- t.a_wake + 1
  | E_fault _ -> t.a_fault <- t.a_fault + 1
  | E_send _ -> t.a_send <- t.a_send + 1
  | E_recv _ -> t.a_recv <- t.a_recv + 1);
  let len = Array.length t.buf in
  if t.n = len && len < t.cap then begin
    let bigger = Array.make (min t.cap (2 * len)) dummy in
    Array.blit t.buf 0 bigger 0 len;
    t.buf <- bigger
  end;
  t.buf.(t.n mod Array.length t.buf) <- { ts; ev };
  t.n <- t.n + 1

let length t = min t.n (Array.length t.buf)
let dropped t = max 0 (t.n - Array.length t.buf)

let iter t f =
  let len = Array.length t.buf in
  let first = max 0 (t.n - len) in
  for i = first to t.n - 1 do
    f t.buf.(i mod len)
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
