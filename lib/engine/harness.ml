(* The common measurement harness used by the paper-style benchmarks:
   spawn [threads] simulated threads placed per the platform's policy,
   synchronize them on a barrier, let each run its body until a virtual
   deadline, and report per-thread operation counts and throughput.

   The harness degrades gracefully under pathological schedules: a
   thread that never reaches its deadline (preempted holder, crash-stop
   victim spinning on a dead lock, livelock) no longer vanishes into a
   silently understated throughput number — [completed] records which
   threads returned, and [health] carries the engine's structured
   verdict ([Stalled {tid; core; last_progress}]) plus fault-injection
   counters.  Callers that care must check [completed_all].

   [simulate] and [run] are pure functions of their arguments: every
   invocation builds its own [Sim.t]/[Memory.t], draws from its own
   seeded RNG, and the engine's perf counters are domain-local — so
   concurrent runs on different domains (see [Pool]) compute exactly
   what serial runs would, and [result] is a plain value safe to ship
   across domains. *)

open Ssync_platform
open Ssync_coherence

type result = {
  platform : Platform.t;
  threads : int;
  ops : int array;       (* operations completed per thread *)
  completed : bool array; (* per thread: did the body return? *)
  duration : int;        (* measured window, cycles *)
  total_ops : int;
  mops : float;          (* total throughput in Mops/s (paper's unit) *)
  health : Sim.health;   (* engine verdict + fault counters *)
  perf : Sim.perf;       (* engine counters: events, parks, wakeups *)
}

let total_of ops = Array.fold_left ( + ) 0 ops
let completed_all r = Array.for_all (fun c -> c) r.completed

(* Real threads leave the start barrier in arbitrary order; a
   noise-free start in tid order would freeze the tid-sorted
   (= socket-sorted) arrival order into every queue lock's wait
   list, silently giving the flat queue locks an almost perfectly
   hierarchical (same-die) handoff pattern no real machine exhibits.
   Spawning in a hashed order freezes a pseudorandom arrival order
   instead: same-time events execute in spawn order, so this permutes
   who wins the initial races without moving a single virtual
   timestamp (which would perturb park/poll tie-breaking).

   Exposed because the mapping workload tid <-> engine tid hangs off
   it: engine tid [k] (spawn order, what crash schedules and trace
   events speak) runs workload tid [(spawn_order ~threads).(k)].
   Fault/chaos tooling needs both directions. *)
let spawn_order ~threads =
  let order = Array.init threads (fun tid -> tid) in
  Array.sort
    (fun a b ->
      compare
        ((a * 2654435761) lsr 7 land 1023, a)
        ((b * 2654435761) lsr 7 land 1023, b))
    order;
  order

(* The one lifecycle of every simulation: [build sim mem] allocates and
   spawns, and returns the closure that reads the result; [simulate]
   runs the simulation (to [until], if given) in between and hands that
   closure the run's health.  The memory is disposed on every exit, an
   exception included, so the closure reads it before that or not at
   all. *)
let simulate ?faults ?parking ?until platform
    (build : Sim.t -> Memory.t -> Sim.health -> 'a) : 'a =
  let sim = Sim.create ?faults ?parking platform in
  let mem = Sim.memory sim in
  Fun.protect
    ~finally:(fun () -> Memory.dispose mem)
    (fun () ->
      let result = build sim mem in
      let _, health = Sim.run_health ?until sim in
      result health)

(* [body shared mem ~tid ~deadline] runs inside a simulated thread and
   returns the number of operations it completed; it must poll
   [Sim.now () < deadline] to terminate.  [setup] builds the shared
   state (locks, buffers...) before any thread starts; allocations
   default to the first participating thread's memory node, as in the
   paper (section 6).  [faults] (default: none) injects deterministic
   preemption/jitter/crash faults into the run. *)
let run ?faults ?parking (platform : Platform.t) ~threads ~duration
    ~(setup : Memory.t -> 'a)
    ~(body : 'a -> Memory.t -> tid:int -> deadline:int -> int) : result =
  if threads <= 0 then invalid_arg "Harness.run: threads must be positive";
  if threads > Platform.n_cores platform then
    invalid_arg
      (Printf.sprintf "Harness.run: %d threads > %d cores on %s" threads
         (Platform.n_cores platform) platform.Platform.name);
  simulate ?faults ?parking ~until:(duration * 4) platform (fun sim mem ->
      let shared = setup mem in
      let ops = Array.make threads 0 in
      let completed = Array.make threads false in
      let barrier = Sim.make_barrier threads in
      Array.iter
        (fun tid ->
          let core = Platform.place platform tid in
          Sim.spawn sim ~core (fun () ->
              Sim.await barrier;
              let deadline = Sim.now () + duration in
              ops.(tid) <- body shared mem ~tid ~deadline;
              completed.(tid) <- true))
        (spawn_order ~threads);
      fun health ->
        let total_ops = total_of ops in
        {
          platform;
          threads;
          ops;
          completed;
          duration;
          total_ops;
          mops = Platform.mops platform ~ops:total_ops ~cycles:duration;
          health;
          perf = Sim.perf sim;
        })

(* Latency-style harness: like [run] but the body accumulates cycles of
   interest (e.g. acquire+release latency) into its return value
   together with the op count; returns mean cycles per op. *)
let run_latency platform ~threads ~duration ~setup
    ~(body : 'a -> Memory.t -> tid:int -> deadline:int -> int * int) :
    result * float =
  let cycles_acc = Array.make threads 0 in
  let r =
    run platform ~threads ~duration ~setup
      ~body:(fun shared mem ~tid ~deadline ->
        let n, cy = body shared mem ~tid ~deadline in
        cycles_acc.(tid) <- cy;
        n)
  in
  let total_cy = total_of cycles_acc in
  let mean =
    if r.total_ops = 0 then 0.
    else float_of_int total_cy /. float_of_int r.total_ops
  in
  (r, mean)
