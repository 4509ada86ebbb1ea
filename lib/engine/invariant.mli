(** Trace-fed invariant checker for lock runs, crash-aware.

    Replays a {!Ssync_trace.Trace.t} and asserts: mutual exclusion
    (recovery steals past crash-stopped holders are counted, not
    flagged; on a ring that dropped events, neither is a release that
    ends a hold granted before the retained window), bounded overtaking
    for FIFO locks, no lost wakeups, and post-recovery liveness (every
    non-crashed thread completed).

    All thread ids are ENGINE tids (spawn order) — what the engine and
    the instrumented lock wrappers stamp on events.  Map
    workload-indexed data through {!Harness.spawn_order} first. *)

type kind = Mutual_exclusion | Overtaking | Lost_wakeup | Liveness

val kind_name : kind -> string

type violation = {
  v_kind : kind;
  v_lock : string;  (** [""] when not about a specific lock *)
  v_tid : int;
  v_ts : int;
  v_detail : string;
}

type report = {
  violations : violation list;
  acquisitions : int;
  releases : int;
  steals : int;  (** grants that recovered past a crash-stopped holder *)
  max_overtakes : int;  (** worst overtaking any live FIFO waiter saw *)
  crashed : int list;  (** engine tids crash-stopped during the run *)
  spawned : int list;
  truncated : bool;  (** the trace ring overflowed: checks are partial *)
}

val ok : report -> bool
(** No violations. *)

val check : completed:(int -> bool) -> Ssync_trace.Trace.t -> report
(** [check ~completed tr] replays [tr].  [completed] maps an engine tid
    to whether that thread's body returned ({!Harness.result.completed}
    composed with {!Harness.spawn_order}).  FIFO locks (by name: the
    ticket variants, ARRAY, MCS and CLH grant in arrival order;
    TAS/TTAS/MUTEX and the hierarchical cohorts do not) may overtake a
    live waiter at most the observed thread count + 3 times, which
    absorbs the wait-announce/queue-entry race. *)

val pp_violation : violation -> string
