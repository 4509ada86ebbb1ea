(** Structured trace recorder for the simulation engine.

    A trace is a per-domain sink of events — lock
    acquire/release/handoff, coherence transfers with protocol state
    and distance class, park/wake, fault injections, message send/recv
    — emitted by the engine, the memory model, the lock factory and
    the MP channel at the virtual time each event occurs, and kept as
    ints in one flat ring that consumers read in place (see "The
    ring's ints" below).

    The contract is zero overhead when off: [Memory.create] reads
    {!current} once per simulation, and every other producer
    ([Sim.create], [Simlock.create], [Channel.create]) takes the sink
    from its memory, so with no trace installed the instrumentation
    costs one [option] match per hook site and the lock wrappers are
    never even built.  Install a sink with {!start} before creating the
    memory.  When on, producers write through
    the per-kind emitters ({!xfer}, {!acq}, ...), which store ints into
    a flat ring and allocate nothing.

    Storage is a ring buffer: once [capacity] events have been
    recorded the oldest are overwritten ({!dropped} counts them), but
    the {!totals} aggregates keep counting, so profile reconciliation
    against [Sim.perf] never degrades.  Successive simulations in one
    job are mapped onto a single forward timeline ({!new_epoch}), so
    per-track timestamps are monotone across a whole job. *)

open Ssync_platform

type fault_kind = Jitter | Preempt | Crash

type t

val create : ?capacity:int -> unit -> t
(** A fresh sink (default capacity [2^16] events). *)

val start : ?capacity:int -> unit -> t
(** Create a sink and install it as the calling domain's current
    trace. *)

val stop : unit -> t option
(** Uninstall and return the domain's current trace, if any. *)

val current : unit -> t option

(* {2 Producer hooks}

   One emitter per event kind.  Each writes the event's ints into the
   ring and bumps its aggregates; none allocates.  [ts] is
   epoch-relative (negative times count as 0).  Every emitter takes at
   most 11 parameters: the program already carries OCaml's partial
   application stubs up to that arity, and one more would move code
   (see DESIGN.md, "Observability"). *)

val thread : t -> ts:int -> tid:int -> core:int -> unit
val wait : t -> ts:int -> tid:int -> lock:int -> unit

val acq : t -> ts:int -> tid:int -> lock:int -> wait:int -> handoff:int -> unit
(** [handoff] is the [Cost_model.rank_of_class] of the distance from
    the previous holder's core, -1 for the lock's first acquisition. *)

val rel : t -> ts:int -> tid:int -> lock:int -> held:int -> unit

val xfer_head :
  core:int ->
  op:Arch.memop ->
  pre:Arch.cstate ->
  post:Arch.cstate ->
  dist:Arch.distance ->
  rq_dir:bool ->
  int
(** A transfer's head word: its kind and small fields, packed.  [core]
    must lie in [\[min_core, max_core\]]. *)

val xfer :
  t ->
  ts:int ->
  tid:int ->
  addr:int ->
  lat:int ->
  service:int ->
  queued:int ->
  rq:int ->
  int ->
  unit
(** A transfer, given its {!xfer_head}. *)

val park : t -> ts:int -> tid:int -> addr:int -> unit
val wake : t -> ts:int -> tid:int -> addr:int -> unit
val fault : t -> ts:int -> tid:int -> kind:fault_kind -> cycles:int -> unit
val send : t -> ts:int -> tid:int -> chan:int -> unit
val recv : t -> ts:int -> tid:int -> chan:int -> unit

val min_core : int
val max_core : int
(** The cores a transfer's head word holds: 46-bit signed. *)

val set_tid : t -> int -> unit
(** Thread on whose behalf the next memory accesses run (-1 outside
    simulated threads). *)

val cur_tid : t -> int
val set_platform : t -> string -> unit
val platform : t -> string

val new_epoch : t -> unit
(** Start a new simulation on this sink: subsequent timestamps are
    offset past everything already recorded, keeping one forward
    timeline per job. *)

val new_lock : t -> string -> int
(** Register a lock; the returned id keys {!wait}, {!acq} and {!rel}. *)

val lock_name : t -> int -> string
val new_chan : t -> string -> int
val chan_name : t -> int -> string

val note_local : t -> cycles:int -> unit
(** A local cache hit (no event recorded, aggregate only). *)

val note_elided : t -> count:int -> cycles:int -> unit
(** Bulk-accounted inert spin probes (see [Memory.try_park_in]). *)

(* {2 Consumers} *)

val length : t -> int
(** Events currently held in the ring. *)

val dropped : t -> int
(** Events overwritten after the ring filled. *)

(** {2 The ring's ints}

    Each retained event is 8 consecutive ints of {!ring}, at the
    offset [o] that {!iter_offsets} passes: the timestamp at [o] (epoch
    base applied), the head word at [o + 1], the tid at [o + 2] and
    payload ints at [o + 3] on.  The payload by kind: a [Thread]'s
    core; a [Wait]'s lock; an [Acq]'s lock and wait; a [Rel]'s lock
    and held time; an [Xfer]'s addr, lat, service, queued and rq; a
    [Park]'s or [Wake]'s address (-1 for [Sim.parker]); a [Fault]'s
    cycles; a [Send]'s or [Recv]'s channel.  The other fields sit in
    the head word.  The tid is -1 for a transfer issued outside a
    simulated thread.  A transfer's [lat] is the cycles charged to the
    requester, [service] the raw transfer latency, [queued] the
    occupancy-queueing share of [lat] and [rq] the share of [queued]
    spent behind a busy link or home directory (its
    [Stats.link_queued_cycles] contribution); its [pre] state is the
    line's when the request was issued, and its distance is the class
    to the data source (or home). *)

type kind = Thread | Wait | Acq | Rel | Xfer | Park | Wake | Fault | Send | Recv

val ring : t -> int array
(** The ring's current array (replaced as the ring grows). *)

val iter_offsets : t -> (int -> unit) -> unit
(** The offsets of the retained events, oldest first. *)

val kind : int -> kind
(** Of a head word, like the [head_] readers below. *)

val head_op : int -> Arch.memop
val head_pre : int -> Arch.cstate
val head_post : int -> Arch.cstate
val head_dist : int -> Arch.distance
val head_core : int -> int

val head_rq_dir : int -> bool
(** A transfer's [rq] was charged to its home directory, not a link. *)

val head_handoff : int -> int
(** An acquisition's handoff rank, -1 for none (see {!acq}). *)

val head_fault : int -> fault_kind

val n_xfer_keys : int

val xfer_key : int -> int
(** A transfer's (op, pre, post, distance) as one int in
    [\[0, n_xfer_keys)], for tables indexed by those four. *)

(** Aggregate counters over the whole run — never dropped, so they
    reconcile with [Sim.perf] even when the ring wrapped. *)
type totals = {
  t_emitted : int;  (** events emitted, including overwritten ones *)
  t_acquires : int;
  t_releases : int;
  t_xfers : int;
  t_xfer_cy : int;  (** cycles charged to threads by transfers *)
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

val totals : t -> totals

val rq_by_rank : t -> int array * int array
(** Resource-queued wait cycles by [Cost_model.rank_of_class] of the
    transfer's distance class: [(links, home_directories)].  Aggregate
    counters like {!totals} — their sum equals the engine's
    [Stats.link_queued_cycles] exactly. *)
