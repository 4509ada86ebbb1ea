(* Deterministic fault injection for the simulation engine.

   The paper measures on dedicated machines with pinned threads; real
   deployments add OS preemption, latency jitter and dying threads —
   exactly where lock algorithms diverge hardest (a preempted ticket- or
   queue-lock holder stalls every waiter, while a preempted TAS waiter
   is harmless).  A [spec] describes such interference; the engine draws
   every fault from per-thread [Ssync_workload.Rng] streams derived from
   [seed], so identical seeds reproduce identical schedules regardless
   of how many threads run or in which order events fire.

   [none] (the default everywhere) injects nothing and consumes no
   random draws: runs without a spec are bit-identical to runs of the
   engine before this layer existed. *)

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
          it never executes at or past that time; whatever it holds
          (locks, queue slots) is never released *)
}

let none =
  {
    seed = 0;
    preempt_prob = 0.;
    preempt_cycles = (0, 0);
    jitter_prob = 0.;
    jitter_cycles = (0, 0);
    crashes = [];
  }

let is_none s = s == none || s = none

let preemption ?(seed = 1) ?(cycles = (2_000, 20_000)) prob =
  if prob < 0. || prob > 1. then invalid_arg "Fault.preemption: prob in [0,1]";
  { none with seed; preempt_prob = prob; preempt_cycles = cycles }

let jitter ?(seed = 1) ?(cycles = (50, 500)) prob =
  if prob < 0. || prob > 1. then invalid_arg "Fault.jitter: prob in [0,1]";
  { none with seed; jitter_prob = prob; jitter_cycles = cycles }

let crash_stop ?(seed = 1) crashes = { none with seed; crashes }

let validate s =
  let range name (lo, hi) prob =
    if prob < 0. || prob > 1. then
      invalid_arg (Printf.sprintf "Fault: %s probability outside [0,1]" name);
    if prob > 0. && (lo < 0 || hi <= lo) then
      invalid_arg (Printf.sprintf "Fault: %s cycle range must be 0 <= lo < hi" name)
  in
  range "preempt" s.preempt_cycles s.preempt_prob;
  range "jitter" s.jitter_cycles s.jitter_prob;
  List.iter
    (fun (tid, at) ->
      if tid < 0 || at < 0 then
        invalid_arg "Fault: crash (tid, at) must be non-negative")
    s.crashes;
  s

(* Per-thread fault stream: independent of every other thread's draws,
   so adding a thread (or reordering events) never perturbs the faults
   injected into the rest of the schedule. *)
let stream s ~tid = Ssync_workload.Rng.create ~seed:((s.seed * 1_000_003) + tid)

let sample rng (lo, hi) =
  if hi <= lo then lo else lo + Ssync_workload.Rng.int rng (hi - lo)

let crash_time s ~tid =
  match List.assoc_opt tid s.crashes with Some at -> at | None -> -1
