(** The simulated coherent memory: machine-wide cache-line state, the
    protocol transitions applied by loads/stores/atomics, and the
    virtual-time cost of each access.

    Addresses are word-granular; coherence is line-granular.  A line
    holds up to [Topology.line_words] words: protocol state, occupancy
    and parked waiters belong to the line, values to the words.  {!alloc} pads every word to its own
    line (the paper's benchmarks pad shared words to a line each, so
    all paper-derived workloads are unchanged); {!alloc_packed}
    co-locates consecutive words on shared lines, which makes false
    sharing expressible.

    Contention is modeled by two kinds of occupancy: *line* occupancy
    (an exclusive transaction keeps the line's directory entry /
    home-tile slot busy for its serialized phase, so concurrent
    requests to one line serialize — the paper's contention results)
    and *resource* occupancy (the transfer also holds the home node's
    directory and every interconnect link it crosses, so pipelined
    traffic between the same nodes queues even across different lines —
    the interconnect-bandwidth term of the two-hop message-passing
    latencies).

    Lines also carry a wait list of parked spinners ({!try_park_in}):
    threads whose spin probes have become inert local hits are
    suspended on the line and woken — on the exact poll grid — by the
    next real access, collapsing O(poll iterations) simulation events
    into O(1) without changing any simulated timestamp. *)

open Ssync_platform

type addr = int

type line = {
  state : Arch.cstate;
  owner : int;  (** core holding Modified/Owned/Exclusive ([-1] = none) *)
  sharers : Coreset.t;  (** cores holding Shared copies (a copy) *)
  home : int;  (** home node (directory / home tile / memory) *)
  busy_until : int;  (** virtual time the line is occupied until *)
  pfw_owner : int;
      (** core holding the exclusive-prefetch reservation ([-1] = none):
          set by a prefetchw probe, cleared by any other real access;
          foreign prefetchw probes degrade to directed read snoops
          meanwhile *)
  cas_pending : int;
      (** core whose CAS just lost on this line ([-1] = none): its
          request stays posted at the line and wins the next grant
          (hardware pending-request arbitration), so its retry skips
          the queue instead of observing a value one transfer stale *)
  llc_dirty : bool;
      (** the last write drained through the store buffer into the
          inclusive LLC: a same-die fetch of this Modified line is an
          LLC hit, not an owner round trip (Xeon) *)
  wq : waiter option;
      (** parked spinners in park order, a circular list through
          [w_link]: [Some last] holds the last parked, whose [w_link] is
          the first *)
}
(** A snapshot of one cache line's state, as {!line} returns it.  The
    memory keeps every line in one flat table; this record is a copy
    for tests and debugging, and does not follow later accesses. *)

(** A parked spinner of the loop [probe; while result = w_while: pause
    w_poll; probe]: elided probes sit on the virtual-time grid
    [w_next + i * (w_hit + w_poll)]; [w_replay] receives the issue time
    of the first probe that must run for real.  A waiter parks on the
    line but polls one word ([w_addr]); an access to any word of the
    line revalidates it.  [w_tie] says whether its probe issuing on an
    access's own cycle ran before that access: the engine's ancestry
    order for waiters parked exactly under fault injection, {!no_tie}
    (the access wins the tie) for the others. *)
and waiter = {
  w_core : int;
  w_addr : addr;  (** the word the spin loop polls *)
  w_op : Arch.memop;
  w_operand : int;
  w_operand2 : int;
  w_while : int;
  w_poll : int;
  w_hit : int;  (** service latency of one inert probe *)
  w_local : bool;
      (** inert probes are local hits (false for foreign-reservation
          directed reads) *)
  w_parked : int;
      (** virtual time the spinner parked — the waiter-depth telemetry
          gauge charges the whole span at wake *)
  mutable w_next : int;
  w_tie : int -> bool;
  w_replay : int -> unit;
  mutable w_link : waiter;  (** next on the line (see {!line.wq}) *)
}

val no_waiter : waiter
(** A placeholder waiter: the [w_link] of a waiter on no line, and the
    engine's "not parked". *)

val no_tie : int -> bool
(** Always [false]. *)

type t

val create : Platform.t -> t
(** A memory with no lines.  It reads the domain's [Trace] and
    [Metrics] sinks, if installed, and starts a new epoch on each, so
    successive memories of one job land on disjoint segments of its
    timeline; every sample it takes goes straight into the sink.  It is
    the one reader of the sinks: the engine, the locks and the channels
    built on a memory take them from {!trace} and {!metrics}. *)

val trace : t -> Ssync_trace.Trace.t option
(** The trace sink {!create} found, if any. *)

val metrics : t -> Ssync_metrics.Metrics.t option
(** The metrics sink {!create} found, if any, its epoch already
    started. *)

val stats : t -> Stats.t
(** Running access statistics of this memory. *)

val n_lines : t -> int

val line_words : t -> int
(** Words per cache line on this memory's platform. *)

val dispose : t -> unit
(** Return the memory's line table, wait-list heads and word arrays to
    a domain-local recycling pool and invalidate [t] (subsequent
    accesses trip bounds checks).  Call once no live simulation
    references the memory; the next {!create} on this domain reuses the
    arrays, sparing the per-job setup allocation churn. *)

val release_pool : unit -> unit
(** Empty the calling domain's recycling pool, so the arrays it holds
    can be collected; the next {!create} allocates fresh ones. *)

val access_lat_in :
  t -> core:int -> now:int -> Arch.memop -> addr ->
  operand:int -> operand2:int -> fetch:bool -> int
(** {!access} with every operand explicit, returning only the latency
    and leaving the result value in {!last_result}: the engine's
    per-operation path, which allocates nothing (optional arguments
    would box a [Some] per call).  A local hit on a line without
    parked waiters — a load by a core holding the line, or a store or
    atomic by the owner of a Modified or Exclusive line — takes a short
    path, metrics on or off; its latency, result and effects on the
    line, the statistics, the trace and the metrics are those of the
    general path. *)

val try_park_in :
  t -> core:int -> now:int -> Arch.memop -> addr ->
  operand:int -> operand2:int -> while_:int -> poll:int ->
  replay:(int -> unit) -> bool
(** The engine's park without fault draws: park the calling spinner
    on the line iff its next probe (issuing at [now + poll]) would be
    inert — a local hit that changes neither the protocol state nor
    the value, returning [while_] — with {!no_tie}.  When it returns
    [false] nothing is parked and the probe must run for real.
    [replay] is called with the first non-elided probe's issue time
    once a real access disturbs the line. *)

val inert_hit :
  t -> core:int -> Arch.memop -> addr ->
  operand:int -> operand2:int -> while_:int -> int
(** Service latency of the spinner's next probe if it would be inert
    right now (the {!try_park_in} condition), else [-1]. *)

val park :
  t -> core:int -> now:int -> Arch.memop -> addr ->
  operand:int -> operand2:int -> while_:int -> poll:int ->
  tie:(int -> bool) -> replay:(int -> unit) -> waiter
(** Park a spinner whose next probe issues at [now + poll] and would be
    inert ({!inert_hit} [>= 0]) at the tail of its line's wait list —
    O(1); wake order is park order.  [tie] and [replay] fill the
    waiter's fields.  The engine parks this way under fault draws,
    where the waiter's own look-ahead needs the record. *)

val settle_waiter : t -> waiter -> upto:int -> unit
(** Account the waiter's elided probes issuing strictly before [upto]
    and move its grid past them. *)

val unpark : t -> waiter -> at:int -> unit
(** Take a parked waiter off its line, charging the waiter-depth gauge
    up to [at]; no-op if it is not parked. *)

val alloc : ?home_core:int -> ?value:int -> t -> addr
(** Allocate one word padded to its own line, homed at [home_core]'s
    memory node (first-touch). *)

val alloc_n : ?home_core:int -> ?value:int -> t -> int -> addr
(** Allocate [n] consecutive padded words (one line each); returns the
    first address. *)

val alloc_packed : ?home_core:int -> ?value:int -> t -> int -> addr
(** Allocate [n] consecutive words packed onto as few lines as the
    platform's line size allows (ceil(n / {!line_words}) lines, all
    homed at [home_core]'s node); returns the first address.  Words of
    one line share coherence state, occupancy and waiters — the
    allocator that makes false sharing happen. *)

val access :
  ?operand:int -> ?operand2:int -> ?fetch:bool -> t -> core:int -> now:int ->
  Arch.memop -> addr -> int * int
(** [access t ~core ~now op a] performs [op] at virtual time [now];
    returns [(latency, result)].  For [Cas], [operand]/[operand2] are
    expected/desired (result 1 on success; [fetch] makes the result the
    observed pre-operation value instead); for [Store]/[Swap],
    [operand] is the value written — [Store] with [operand2 = 1] posts
    through the store buffer: the thread pays only the retire cost
    while the transfer (transition, invalidations, occupancy) completes
    in the background; for [Fai], [operand] is the increment — 0 makes
    it an exclusive-prefetch probe that reserves the line
    ({!line.pfw_owner}) or, under a foreign reservation, degrades to a
    directed read snoop; [Fai] with [operand2 = 1] marks a store-class
    single-writer update.  A real access additionally settles and
    revalidates the line's parked waiters. *)

val last_result : t -> int
(** Result value of the most recent access on this memory. *)

val waiter_count : t -> addr -> int
(** Number of spinners currently parked on the line (tests/metrics). *)

val probe_latency : t -> core:int -> Arch.memop -> addr -> int
(** Expected service latency of [op] right now, without performing it. *)

val line : t -> addr -> line
(** A snapshot of the line holding word [a] (tests/debug); a fresh
    record on every call.  {!same_line} tells whether two addresses
    share a line. *)

val same_line : t -> addr -> addr -> bool
(** Do two addresses share a cache line? (tests/metrics) *)

val resource_busy : t -> int -> int
(** Virtual time interconnect resource [r] (a [Cost_model] resource id)
    is held until (tests/metrics). *)

val reset_resources : t -> unit
(** Drop all interconnect-resource occupancy (benchmark setup). *)

val peek : t -> addr -> int
(** Read a value with no cost and no protocol transition. *)

val poke : t -> addr -> int -> unit
(** Write a value with no cost and no protocol transition. *)

val force_state :
  t -> holder:int -> ?second:int -> Arch.cstate -> addr -> unit
(** Drive a line into a state via real protocol transitions, as the
    original ccbench does; [holder] ends up holding the line, [second]
    is the extra sharer used for [Shared]/[Owned].  Also clears all
    interconnect-resource occupancy so isolated latency probes see an
    idle machine.
    @raise Invalid_argument if [second] equals [holder]. *)

val reset_busy : t -> addr -> unit
(** Clear the line's occupancy and all interconnect-resource occupancy
    (benchmark setup). *)
