(** The discrete-event simulation engine.

    Simulated threads are ordinary OCaml functions running as
    effects-based coroutines.  A thread's own operations (memory
    accesses, pauses, clock and identity queries) are plain calls on
    the thread's stack: each charges its virtual-time cost against the
    coherent memory model and returns at once when no other event can
    come first (direct-run); otherwise the thread suspends and the
    engine resumes it at completion time.  Both paths give the same
    schedule.  Lock and message-passing algorithms are written in
    direct style, exactly like their native counterparts.

    Waits run on the waiting thread's stack as well.  A spin primitive
    ({!spin_load} and friends) is the literal loop "pause [poll], then
    probe, until the result differs from [while_]" — same probes, same
    virtual timestamps as the hand-written loop.  Once a spinner's next
    probe would be an inert local hit, the thread parks on the line
    inside the memory model instead and is woken, on its original poll
    grid, by the next real access; O(poll iterations) of simulation
    events collapse to O(1).  Barriers and parkers suspend the same
    way.

    The engine optionally injects deterministic faults ({!Fault.spec}:
    preemption, latency jitter, crash-stop threads) and always tracks
    per-thread progress, so {!run_health} reports a structured verdict
    — finished versus stalled/deadlocked — instead of silently
    dropping the tail of a pathological schedule.

    {!create} fixes one of three wait modes.  {e Polled} (parking off,
    or a crash-stop spec): every wait pauses and probes literally.
    {e Exact} (a positive jitter or preemption probability): spin
    waits park, a parked waiter draws its elided polls' faults ahead
    from its own stream and wakes at the first poll whose draws fire,
    and every event standing in for an elided one sorts among
    same-time events where the polled one would; parkers poll.
    {e Parked} (otherwise): spin waits and parkers park.

    The engine is serial: one event queue, one virtual clock, one
    memory.  Parallelism comes from running many independent
    simulations at once ([Pool]), not from splitting one simulation
    across domains.  The counters ({!perf}) live in [t] alone, and the
    trace and metrics sinks are the memory's. *)

type t

exception Simulation_runaway of int

val create :
  ?faults:Fault.spec -> ?parking:bool -> Ssync_platform.Platform.t -> t
(** [create ?faults ?parking p] builds a simulation on platform
    [p].  [faults] defaults to {!Fault.none}, which injects nothing and
    consumes no random draws — fault-free runs are bit-identical to the
    engine without the fault layer.  [parking] (default [true])
    enables event-driven waiter wakeup; [false] makes every wait poll
    literally, the reference parked runs are checked against.  The
    two fix the wait mode (see the module header).  Raises
    [Invalid_argument] on a malformed spec. *)

val memory : t -> Ssync_coherence.Memory.t

val spawn : t -> core:int -> (unit -> unit) -> unit
(** [spawn t ~core body] schedules a simulated thread pinned to [core].
    [body] may use every operation below. *)

(** {1 Run loop and progress watchdog} *)

type verdict =
  | Completed  (** every spawned thread returned *)
  | Stalled of { tid : int; core : int; last_progress : int }
      (** live threads remained when the run ended — the [until]
          backstop dropped their pending events, or the event queue
          drained with threads still blocked (deadlock).  The reported
          thread is the live one that has gone longest without
          progress. *)

type health = {
  verdict : verdict;
  crashed : int list;  (** tids crash-stopped by fault injection *)
  preemptions : int;  (** injected preemption events *)
  jitter_events : int;  (** injected latency-jitter events *)
  dropped_events : int;  (** events discarded past [until] *)
}

val verdict_to_string : verdict -> string

val run_health : ?until:int -> ?max_events:int -> t -> int * health
(** Run until no events remain; returns the final virtual time and the
    health record.  [until] stops the run at that virtual time (a
    backstop against threads that spin forever); [max_events] bounds
    the total event count and raises [Simulation_runaway] beyond it.
    With event-driven waiting, a deadlocked run (e.g. parked spinners
    whose wakeup will never come) drains the queue and reports
    [Stalled] with [dropped_events = 0] rather than polling until the
    backstop.  The run's counters stay in [t] ({!perf}). *)

val run : ?until:int -> ?max_events:int -> t -> int
(** [run t] is [fst (run_health t)] — the original interface, for
    callers that do not inspect health. *)

(** {1 Engine performance counters} *)

type perf = {
  events : int;
      (** logical thread resumptions: event-queue pops plus direct-run
          continues.  Counting both makes the metric independent of
          which path each resumption took. *)
  queued : int;
      (** the resumptions among [events] popped from the event queue;
          [events - queued] direct-ran.  Host cost, not a simulated
          result: it stays out of the benchmark's counter baseline. *)
  parks : int;  (** threads parked event-driven *)
  wakeups : int;
      (** parked threads woken by a real access, or at the step an
          exact park's fault look-ahead stopped on *)
  elided_probes : int;
      (** inert spin probes accounted in bulk, without an event each *)
  link_queued_cycles : int;
      (** cycles memory operations spent queued behind busy finite-
          bandwidth interconnect resources (links and home
          directories); it sums [Stats.link_queued_cycles] *)
  sim_cycles : int;  (** virtual time advanced *)
}

val perf : t -> perf
(** Counters for this simulation, cumulative over its [run_health]
    calls: the simulation's own fields and its memory's statistics, the
    only copy of each.  [Harness.simulate] adds them to the domain's
    total once the run returns, and [Pool] attributes a job the
    difference of that total around it. *)

val perf_zero : perf
val perf_add : perf -> perf -> perf
val perf_diff : perf -> perf -> perf
(** Pure arithmetic on perf records ([perf_diff a b] is [a - b]
    field-wise), for aggregating per-job counter deltas. *)

(** {1 Operations available inside a simulated thread}

    Calling these outside [spawn]ed code raises [Effect.Unhandled]. *)

val now : unit -> int
(** The calling thread's virtual time. *)

val load : Ssync_coherence.Memory.addr -> int
val store : Ssync_coherence.Memory.addr -> int -> unit

val store_posted : Ssync_coherence.Memory.addr -> int -> unit
(** Store posted through the store buffer: the thread pays only the
    retire cost while the coherence transfer (ownership change,
    invalidations, line occupancy) completes in the background — the
    overlapped-transfer model of an ordinary x86 store with no fence
    before the next dependent access. *)

val cas : Ssync_coherence.Memory.addr -> expected:int -> desired:int -> bool

val cas_fetch : Ssync_coherence.Memory.addr -> expected:int -> desired:int -> int
(** Compare-and-swap returning the observed pre-operation value (the
    hardware CAS interface): succeeded iff the result equals
    [expected].  A failed [cas_fetch] hands the retry loop its next
    expected value from the same coherence transaction, where
    [cas]+re-[load] would pay — and serialize on — a second transfer. *)

val fai : Ssync_coherence.Memory.addr -> int
(** Atomic fetch-and-increment; returns the previous value. *)

val faa : Ssync_coherence.Memory.addr -> int -> int
(** Atomic fetch-and-add by [k >= 0].  [faa a 0] is an exclusive atomic
    read: it returns the value and leaves the line Modified at the
    caller — the model of a prefetchw+load probe (costed store-class). *)

val faa_store : Ssync_coherence.Memory.addr -> int -> int
(** Store-class fetch-and-add: an increment of a field only this thread
    writes (e.g. a ticket lock's [current] on release); applied
    atomically but costed as a plain store. *)

val tas : Ssync_coherence.Memory.addr -> bool
(** Test-and-set; [true] when the caller won (previous value was 0). *)

val swap : Ssync_coherence.Memory.addr -> int -> int
val pause : int -> unit
(** Spend the given core-local cycles (backoff, computation). *)

val self_core : unit -> int
val self_tid : unit -> int

(** {1 Spin primitives}

    Each is the loop "pause [poll], then probe, until the result
    differs from [while_]", and returns that result.  Callers probe
    once before they call, so the loop starts with the pause: on a
    word that already differs from [while_], [spin_load ~poll:100]
    returns after the 100-cycle pause and one probe, [~poll:0] after
    the probe alone.  Raise [Invalid_argument] on a negative [poll]. *)

val spin_load : Ssync_coherence.Memory.addr -> while_:int -> poll:int -> int
(** Spin on plain loads while they return [while_]. *)

val spin_tas : Ssync_coherence.Memory.addr -> poll:int -> unit
(** Spin on test-and-set until it wins (previous value 0). *)

val spin_cas :
  Ssync_coherence.Memory.addr -> expected:int -> desired:int -> poll:int -> unit
(** Spin on compare-and-swap until it succeeds. *)

val spin_swap :
  Ssync_coherence.Memory.addr -> int -> while_:int -> poll:int -> int
(** Spin on [swap a v] while it returns [while_]. *)

val spin_faa0 : Ssync_coherence.Memory.addr -> while_:int -> poll:int -> int
(** Spin on the exclusive atomic read [faa a 0] (prefetchw-style probe)
    while it returns [while_]. *)

(** {1 Barriers} *)

type barrier

val make_barrier : int -> barrier
(** A reusable barrier for [n] simulated threads (no memory traffic). *)

val await : barrier -> unit

(** {1 Parkers}

    A single-waiter parking spot for waits on state the memory model
    cannot see (e.g. the Tilera's hardware message queues).  The waiter
    declares its poll period; {!unpark} wakes it at the first poll-grid
    point after the state change — exactly when the literal poll loop
    would have noticed.  Outside the parked wait mode (a positive
    jitter or preemption probability, a crash spec, or parking
    disabled), {!park} degrades to one [pause poll] quantum and the
    caller's loop re-checks. *)

type parker

val make_parker : unit -> parker

val park : parker -> poll:int -> unit
(** Park until {!unpark}, or pause one poll quantum in fallback mode;
    callers must re-check their condition in a loop.  [poll] must be
    positive.  Raises [Invalid_argument] if the parker is occupied. *)

val unpark : parker -> unit
(** Wake the parked waiter, if any, on its poll grid; costless for the
    caller. *)

val event_driven_waits : unit -> bool
(** Whether the enclosing simulation is in the parked wait mode, where
    parkers park (parking enabled, no crash spec, no positive fault
    probability) — lets wait loops choose between grid-arithmetic
    shortcuts and literal polling. *)

val tid_crashed : int -> bool
(** Has thread [tid] crash-stopped?  True from the moment virtual time
    reaches the victim's crash time — the oracle robust locks build
    owner-death detection on, modeling the OS's exact knowledge of dead
    lock holders (robust-futex EOWNERDEAD bookkeeping).  Cost-free: the
    query adds no events and no latency.  Unknown tids are alive. *)
