(** A fixed-size domain pool with deterministic job-to-result ordering.

    Submit independent simulation jobs as pure thunks; [run] fans them
    across up to [jobs] domains (the calling domain included) and
    returns results in submission order, so downstream rendering is
    byte-identical whatever the parallelism.  Each result carries the
    wall time and the engine counters ({!Sim.perf}) of the simulations
    the job ran through [Harness.simulate], measured inside the domain
    that executed the job — the total they are booked into is
    domain-local, so concurrent jobs never race on it. *)

type stats = {
  wall_ns : int;  (** wall-clock spent executing the job *)
  perf : Sim.perf;  (** engine-counter delta attributable to the job *)
}

exception Job_failures of (int * exn) list
(** Raised by {!run} when two or more jobs failed: every
    [(job index, exception)] pair, lowest index first.  A registered
    printer renders all of them.  A single failing job re-raises its
    original exception unchanged instead. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

val run : ?jobs:int -> (unit -> 'a) array -> ('a * stats) array
(** [run ~jobs thunks] executes every thunk and returns
    [(value, stats)] per job, indexed like [thunks].  [jobs] defaults
    to {!default_jobs}; [jobs = 1] (or a single job) executes inline on
    the calling domain with no domains or atomics involved.  Domains
    pull jobs off a shared counter, so long and short jobs balance
    dynamically.  Before returning, [run] empties the calling domain's
    [Memory] recycling pool, so no job's arrays outlive the run.  If
    exactly one job raises, its exception is re-raised after all jobs
    finish; if several fail, {!Job_failures} reports them all.  Raises
    [Invalid_argument] when [jobs < 1]. *)

val total_stats : ('a * stats) array -> stats
(** Sum of the per-job stats, field-wise. *)
