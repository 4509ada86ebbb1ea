(** The simulated coherent memory: machine-wide cache-line state, the
    protocol transitions applied by loads/stores/atomics, and the
    virtual-time cost of each access.

    Addresses are word-granular; coherence is line-granular.  A line
    holds up to [Topology.line_words] words: protocol state, occupancy,
    parked waiters, conflict stamps and PDES residency belong to the
    line, values to the words.  {!alloc} pads every word to its own
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

    Lines also carry a wait list of parked spinners ({!try_park}):
    threads whose spin probes have become inert local hits are
    suspended on the line and woken — on the exact poll grid — by the
    next real access, collapsing O(poll iterations) simulation events
    into O(1) without changing any simulated timestamp. *)

open Ssync_platform

type addr = int

type line = {
  mutable state : Arch.cstate;
  mutable owner : int;
      (** core holding Modified/Owned/Exclusive ([-1] = none) *)
  sharers : Coreset.t;  (** cores holding Shared copies *)
  mutable home : int;
      (** home node (directory / home tile / memory); mutable only so
          disposed memories can recycle line records in place *)
  mutable busy_until : int;  (** virtual time the line is occupied until *)
  mutable pfw_owner : int;
      (** core holding the exclusive-prefetch reservation ([-1] = none):
          set by a prefetchw probe, cleared by any other real access;
          foreign prefetchw probes degrade to directed read snoops
          meanwhile *)
  mutable cas_pending : int;
      (** core whose CAS just lost on this line ([-1] = none): its
          request stays posted at the line and wins the next grant
          (hardware pending-request arbitration), so its retry skips
          the queue instead of observing a value one transfer stale *)
  mutable llc_dirty : bool;
      (** the last write drained through the store buffer into the
          inclusive LLC: a same-die fetch of this Modified line is an
          LLC hit, not an owner round trip (Xeon) *)
  mutable waiters : waiter list;  (** parked spinners, FIFO *)
}
(** Sharded-execution bookkeeping (residency, conflict stamps, peek
    generations) is held in side arrays indexed by line — see
    {!residency}, {!stamp}, {!peeked_this_window} — so serial runs pay
    nothing for it in line-record size. *)

(** A parked spinner of the loop [probe; while result = w_while: pause
    w_poll; probe]: elided probes sit on the virtual-time grid
    [w_next + i * w_step]; [w_replay] receives the issue time of the
    first probe that must run for real.  A waiter parks on the line but
    polls one word ([w_addr]); an access to any word of the line
    revalidates it. *)
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
  w_step : int;  (** [w_hit + w_poll] *)
  w_parked : int;
      (** virtual time the spinner parked — the waiter-depth telemetry
          gauge charges the whole span at wake *)
  mutable w_next : int;
  w_replay : int -> unit;
}

type t

val create : Platform.t -> t
val platform : t -> Platform.t

val stats : t -> Stats.t
(** Slot-0 statistics.  After a sharded run the engine calls
    {!merge_slots}, so this reports the same merged totals a serial run
    accumulates directly. *)

val n_lines : t -> int
val n_words : t -> int

val line_words : t -> int
(** Words per cache line on this memory's platform. *)

(** {1 Sharded (PDES) execution support}

    A sharded engine partitions lines across shards by a residency tag
    and gives each shard its own {!slot} — the mutable per-access
    scratch (cost-model view, {!last_result} out-parameter,
    resource-path scratch, running stats) that concurrent shards must
    not share.  Serial execution uses slot 0 throughout.  See [Sim] for
    the execution model. *)

type slot
(** Per-shard scratch + stats; obtained from {!slot}. *)

exception Sharded_alloc
(** Raised by {!alloc} while the memory is {!freeze}-frozen (a sharded
    window is executing): allocation mutates the line table, which
    shards cannot do concurrently, so the engine aborts the sharded
    attempt and re-runs serially. *)

exception Sharded_violation of int list
(** Raised by {!peek}/{!poke} from inside a sharded window when the
    line is resident on another shard, and by any access whose
    interconnect path crosses a foreign shard's resource or uses one
    out of stamp order — neither can be deferred through the engine's
    residency routing, so the attempt aborts.  The payload names the
    implicated line ids (the conflicting transfer's line and the
    previous stamper's): the engine rolls back to its {!checkpoint}
    and replays with those lines promoted to coordinator-mediated
    access.  An empty payload means the conflict is not attributable
    to lines (e.g. a cross-shard peek, which carries no ordering key)
    and the attempt must fall back to the serial path instead. *)

val require_serial : t -> unit
(** Declare that the workload holds cross-thread state the memory model
    cannot see (e.g. a hardware message queue in native OCaml data) —
    the conflict stamps cannot order it, so sharded runs of this memory
    must abort to the serial path.  Called by workload constructors
    (channel setup) before the run starts. *)

val serial_required : t -> bool

val set_exec_sid : int -> unit
(** Declare which shard the calling domain is currently draining
    ([-1] = none).  Domain-local. *)

val exec_sid : unit -> int

val peeked_this_window : t -> addr -> bool
(** Was the line {!peek}ed/{!poke}d during the current window?  The
    coordinator refuses to run deferred accesses against such a line
    (the peek carries no ordering key to conflict-check against). *)

val slot : t -> int -> slot
val n_slots : t -> int

val slot_metrics : slot -> Ssync_metrics.Metrics.t option
(** The slot's metrics accumulator ([None] when metrics are off).  The
    engine charges its own virtual-time gauges — thread run-state
    spans, park/wake counts — into the executing shard's accumulator
    so they ride the same branch/merge/rollback discipline as the
    coherence-level samples. *)

val set_slots : t -> int -> unit
(** Ensure [n] slots exist; slots >= 1 restart with fresh stats. *)

val merge_slots : t -> unit
(** Fold every shard slot's stats into slot 0 and zero the shard
    slots (which stay usable for the next run).  Statistics are sums,
    so the merged totals equal a serial run's regardless of how
    accesses were distributed over shards. *)

val drain_metrics : t -> unit
(** Fold every slot's metrics accumulator into the domain's [Metrics]
    sink (no-op when metrics are off).  The engine calls it only when a
    run completes — aborted sharded attempts never drain, so the sink
    holds samples from the surviving (serial-equivalent) schedule
    only. *)

val freeze : t -> bool -> unit
(** Toggle the window-in-progress flag checked by {!alloc} and the
    debug accessors; freezing bumps the window generation used by
    {!peeked_this_window}. *)

val residency : t -> addr -> int
val set_residency : t -> addr -> int -> unit

val line_id : t -> addr -> int
(** The id of the line holding word [a] — the currency of
    {!Sharded_violation} payloads and {!set_line_residency}. *)

val line_residency : t -> int -> int
(** Residency tag of a line, by line id. *)

val set_line_residency : t -> int -> int -> unit
(** Set a line's residency tag by line id.  The engine promotes
    conflicting lines by tagging them with a sentinel no shard
    matches, so every access defers to the inter-window coordinator
    (serial-within-window execution). *)

val set_solo : t -> bool -> unit
(** Declare that the current window runs on exactly one shard: the
    resource *ownership* guard is skipped (no concurrent shard can
    race it) while the stamp-monotonicity guard still runs, so
    conflict detection is unchanged.  Cleared automatically by
    {!restore}; the engine clears it at each window boundary. *)

(** {2 Checkpoint / rollback (speculative replay)}

    The engine checkpoints once per job at virtual time 0 — after
    workload setup, before any thread is spawned — and, when a sharded
    attempt aborts on a conflict, restores and replays with the
    conflicting lines promoted instead of rebuilding the job serially.
    The checkpoint is an undo journal: the first post-checkpoint touch
    of a line or word records its pre-image (O(dirty set) space and
    restore time); the small interconnect-resource arrays and slot-0
    stats are snapshotted wholesale; lines/words allocated after the
    checkpoint are truncated away on restore. *)

val checkpoint : t -> unit
(** Arm (or re-arm) the rollback point.  Precondition: no parked
    waiters (raises [Invalid_argument] otherwise) — nothing may be
    mid-spin, which also makes event-queue snapshots unnecessary: the
    replay's re-spawn rebuilds all queued work. *)

val restore : t -> unit
(** Roll all observable state back to the checkpoint: line protocol
    state, owners/sharers, busy-untils, pfw/cas-pending/llc flags,
    word values, line and resource conflict stamps, resource
    busy-times and slot-0 stats (shard-slot stats are zeroed).  The
    checkpoint stays armed for further restores.  Raises
    [Invalid_argument] if no checkpoint is armed. *)

val has_checkpoint : t -> bool

val dispose : t -> unit
(** Return the memory's line records and side arrays to a domain-local
    recycling pool and invalidate [t] (subsequent accesses trip bounds
    checks).  Call once no live simulation references the memory; the
    next {!create} on this domain reuses the arrays, sparing the
    per-job setup allocation churn. *)

val assign_residency : t -> shard_of_node:(int -> int) -> from:int -> int
(** Tag lines [\[from, n_lines)] with the shard of their home node;
    returns the new high-water mark (a line count). *)

val stamp : t -> addr -> time:int -> tid:int -> bool
(** Conflict check + stamp: record that [addr]'s line served an access
    with key [(time, tid)].  Returns [false] — without stamping — when
    the line has already served a later-keyed access (or a same-time
    access by a different thread, whose serial order is
    unreconstructable): the sharded schedule has diverged from the
    serial one and the engine must abort and re-run serially.  Stamps
    are line-granular: packed words on one line conflict exactly like
    one shared word. *)

val clear_stamps : t -> unit
(** Reset every line and resource stamp (start of a sharded run); also
    arms the resource ownership/stamp guards for this memory. *)

val access_lat_in :
  t -> slot:slot -> core:int -> now:int -> Arch.memop -> addr ->
  operand:int -> operand2:int -> fetch:bool -> int
(** {!access_lat} against an explicit shard slot, with every operand
    explicit: the engine's per-operation path, which allocates nothing
    (optional arguments would box a [Some] per call). *)

val last_result_in : slot -> int

val try_park_in :
  t -> slot:slot -> core:int -> now:int -> Arch.memop -> addr ->
  operand:int -> operand2:int -> while_:int -> poll:int ->
  replay:(int -> unit) -> bool
(** {!try_park} against an explicit shard slot. *)

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

val access_lat :
  ?operand:int -> ?operand2:int -> ?fetch:bool -> t -> core:int -> now:int ->
  Arch.memop -> addr -> int
(** Exactly {!access}, but returns only the latency and leaves the
    result value in {!last_result} — the engine's per-operation hot
    path, which would otherwise allocate one [(latency, result)] tuple
    per simulated memory access. *)

val last_result : t -> int
(** Result value of the most recent {!access_lat} on this memory. *)

val try_park :
  t -> core:int -> now:int -> Arch.memop -> addr ->
  operand:int -> operand2:int -> while_:int -> poll:int ->
  replay:(int -> unit) -> bool
(** Park the calling spinner on the line iff its next probe (issuing
    at [now + poll]) would be inert: a local hit that changes neither
    the protocol state nor the value, returning [while_].  When it
    returns [false] the probe must be performed with {!access}.
    [replay] is called with the first non-elided probe's issue time
    once a real access disturbs the line. *)

val waiter_count : t -> addr -> int
(** Number of spinners currently parked on the line (tests/metrics). *)

val probe_would_elide :
  t -> core:int -> Arch.memop -> addr ->
  operand:int -> operand2:int -> while_:int -> bool
(** Would a probe of the line be inert right now (same predicate as
    {!try_park})?  Used by the engine to decide whether a probe can
    skip per-op fault draws under jitter-only specs: an inert probe is
    exactly one that parking would have elided. *)

val probe_latency : t -> core:int -> Arch.memop -> addr -> int
(** Expected service latency of [op] right now, without performing it. *)

val line : t -> addr -> line
(** The line holding word [a] (tests/debug).  Two addresses alias the
    same line iff [line t a == line t b]; see also {!same_line}. *)

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
    idle machine. *)

val reset_busy : t -> addr -> unit
(** Clear the line's occupancy and all interconnect-resource occupancy
    (benchmark setup). *)
