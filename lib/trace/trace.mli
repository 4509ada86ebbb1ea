(** Structured trace recorder for the simulation engine.

    A trace is a per-domain sink of typed events — lock
    acquire/release/handoff, coherence transfers with protocol state
    and distance class, park/wake, fault injections, message send/recv
    — emitted by the engine, the memory model, the lock factory and
    the MP channel at the virtual time each event occurs.

    The contract is zero overhead when off: producers cache
    {!current} at creation time ([Sim.create] / [Memory.create] /
    [Simlock.create] / [Channel.create]), so with no trace installed
    the instrumentation costs one [option] match per hook site and the
    lock wrappers are never even built.  Install a sink with {!start}
    before creating the simulation.

    Storage is a ring buffer: once [capacity] events have been
    recorded the oldest are overwritten ({!dropped} counts them), but
    the {!totals} aggregates keep counting, so profile reconciliation
    against [Sim.perf] never degrades.  Successive simulations in one
    job are mapped onto a single forward timeline ({!new_epoch}), so
    per-track timestamps are monotone across a whole job. *)

open Ssync_platform

type fault_kind = Jitter | Preempt | Crash

type event =
  | E_thread of { tid : int; core : int }  (** thread spawned *)
  | E_wait of { tid : int; lock : int }  (** blocking acquire started *)
  | E_acq of { tid : int; lock : int; wait : int; dist : Arch.distance option }
      (** lock acquired after [wait] cycles; [dist] is the handoff
          distance class from the previous holder's core ([None] for
          the lock's first acquisition) *)
  | E_rel of { tid : int; lock : int; held : int }
  | E_xfer of {
      tid : int;  (** -1 when issued outside a simulated thread *)
      core : int;
      op : Arch.memop;
      addr : int;
      pre : Arch.cstate;  (** line state when the request was issued *)
      post : Arch.cstate;
      dist : Arch.distance;  (** class to the data source (or home) *)
      lat : int;  (** cycles charged to the requesting thread *)
      service : int;  (** raw transfer service latency *)
      queued : int;  (** occupancy-queueing share of [lat] *)
      rq : int;
          (** interconnect-resource share of [queued]: cycles spent
              behind a busy link or home directory rather than the
              line itself (equals [Stats.link_queued_cycles]'s
              per-access contribution) *)
      rq_dir : bool;
          (** [rq] was charged to the transfer's home directory; [false]
              = charged to an interconnect link *)
    }  (** a non-local coherence transaction *)
  | E_park of { tid : int; addr : int }  (** addr -1 = [Sim.parker] *)
  | E_wake of { tid : int; addr : int }
  | E_fault of { tid : int; kind : fault_kind; cycles : int }
  | E_send of { tid : int; chan : int }
  | E_recv of { tid : int; chan : int }

type entry = { ts : int; ev : event }

type t

val requested : bool ref
(** Set by the CLI ([--trace] / [profile]); [Pool] reads it once per
    run and installs a fresh sink around every job when set. *)

val create : ?capacity:int -> unit -> t
(** A fresh sink (default capacity [2^16] events). *)

val start : ?capacity:int -> unit -> t
(** Create a sink and install it as the calling domain's current
    trace. *)

val stop : unit -> t option
(** Uninstall and return the domain's current trace, if any. *)

val current : unit -> t option

(* {2 Producer hooks} *)

val emit : t -> ts:int -> event -> unit

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
(** Register a lock; the returned id keys {!E_wait}/{!E_acq}/{!E_rel}. *)

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

val iter : t -> (entry -> unit) -> unit
(** Chronological (= emission) order over the retained events. *)

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
