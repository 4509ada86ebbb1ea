(** Factory over the simulated libslock: the nine lock algorithms the
    paper evaluates (Figures 5-8) plus the two extra ticket variants of
    Figure 3, all running against the simulated coherent memory. *)

type algo =
  | Tas
  | Ttas
  | Ticket
  | Array_lock
  | Mutex  (** futex model: sleeps in the "kernel" under contention *)
  | Mcs
  | Clh
  | Hclh
  | Hticket
  | Ticket_spin  (** Figure 3: non-optimized ticket (no backoff) *)
  | Ticket_prefetchw  (** Figure 3: backoff + prefetchw probes *)

val paper_algos : algo list
(** The nine algorithms of Figures 5-8, in the paper's legend order. *)

val algos_for : Ssync_platform.Platform.t -> algo list
(** [paper_algos] minus the hierarchical locks on the single-socket
    platforms (as in the paper). *)

val name : algo -> string
val of_string : string -> algo option

val ticket_backoff_base : Ssync_platform.Platform.t -> int
(** The ticket lock's proportional-backoff base, tuned per platform to
    the typical lock-handoff time. *)

val create :
  ?home_core:int ->
  Ssync_coherence.Memory.t ->
  Ssync_platform.Platform.t ->
  n_threads:int ->
  algo ->
  Lock_type.t
(** [create mem p ~n_threads algo] instantiates [algo] in simulated
    memory.  [n_threads] bounds the thread ids that may use the lock,
    for every algorithm: [0 .. n_threads - 1].  [home_core] places the
    lock's global lines and defaults to core 0, where every platform
    places thread 0 (the paper's first-participant policy).  The lock's
    robust layer is built at its first robust call
    ({!Lock_type.acquire_robust}). *)
