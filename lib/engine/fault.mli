(** Deterministic fault injection for the simulation engine.

    A {!spec} describes OS-style interference — thread preemption
    (including lock holders), memory-op latency jitter, crash-stop
    threads — injected into a simulation.  All faults are drawn from
    per-thread deterministic streams derived from [seed]: identical
    specs reproduce identical schedules.  {!none} (the default) injects
    nothing and leaves runs bit-identical to the fault-free engine. *)

type spec = {
  seed : int;  (** root of the per-thread fault streams *)
  preempt_prob : float;
      (** per-scheduling-point probability that the thread is
          descheduled — including while holding a lock *)
  preempt_cycles : int * int;
      (** [(lo, hi)] bounds (inclusive, exclusive) of a preemption's
          duration in cycles *)
  jitter_prob : float;
      (** per-memory-op probability of added completion latency *)
  jitter_cycles : int * int;  (** [(lo, hi)] bounds of the added latency *)
  crashes : (int * int) list;
      (** [(tid, at)]: thread [tid] crash-stops at virtual time [at] —
          it never executes at or past that time; whatever it holds is
          never released *)
}

val none : spec
(** No faults; consumes no random draws. *)

val is_none : spec -> bool

val preemption : ?seed:int -> ?cycles:int * int -> float -> spec
(** [preemption prob] preempts at each scheduling point with
    probability [prob] for a duration drawn from [cycles]. *)

val jitter : ?seed:int -> ?cycles:int * int -> float -> spec
(** [jitter prob] adds latency drawn from [cycles] to a memory op with
    probability [prob]. *)

val crash_stop : ?seed:int -> (int * int) list -> spec
(** [crash_stop [(tid, at); ...]] crash-stops each [tid] at time [at]. *)

val validate : spec -> spec
(** Raises [Invalid_argument] on malformed probabilities/ranges. *)

(**/**)

(* Engine internals. *)
val stream : spec -> tid:int -> Ssync_workload.Rng.t
val sample : Ssync_workload.Rng.t -> int * int -> int
val crash_time : spec -> tid:int -> int
