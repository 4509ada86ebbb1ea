(* The lock stress tests of section 6.1: throughput under extreme to
   very low contention (Figures 5, 7, 8), uncontested acquisition
   latency by previous-holder distance (Figure 6), and the ticket-lock
   variant comparison on the Opteron (Figure 3). *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks

(* Deterministic per-thread PRNG for lock selection. *)
let lcg_next s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* Throughput of [algo]: each thread acquires a random one of [n_locks]
   locks, reads and writes the corresponding data line, releases, then
   pauses so the release is visible before it retries (section 6.1.2).
   [faults] injects deterministic preemption/jitter/crash interference
   (the lock-holder-preemption experiment); default none. *)
let throughput ?faults ?(duration = 400_000) pid algo ~threads ~n_locks :
    Harness.result =
  let p = Platform.get pid in
  let local_work = Platform.local_work_for p ~threads in
  Harness.run ?faults p ~threads ~duration
    ~setup:(fun mem ->
      let home = Platform.place p 0 in
      let locks =
        Array.init n_locks (fun _ ->
            Simlock.create ~home_core:home mem p ~n_threads:threads algo)
      in
      let data = Array.init n_locks (fun _ -> Memory.alloc ~home_core:home mem) in
      (locks, data))
    ~body:(fun (locks, data) _mem ~tid ~deadline ->
      let n = ref 0 in
      let seed = ref (lcg_next (tid + 7)) in
      while Sim.now () < deadline do
        seed := lcg_next !seed;
        let i = !seed mod n_locks in
        let lock = locks.(i) in
        lock.Lock_type.acquire ~tid;
        (* the protected data: one read and one write *)
        let v = Sim.load data.(i) in
        Sim.store data.(i) (v + 1);
        lock.Lock_type.release ~tid;
        Sim.pause local_work;
        incr n
      done;
      !n)

(* Best algorithm at a configuration: (name, Mops, scalability vs the
   best single-thread run of the same workload) — the "X : Y" labels of
   Figures 8 and 11. *)
type best = { algo : Simlock.algo; mops : float; scalability : float }

let best_of ?duration pid ~threads ~n_locks : best =
  let p = Platform.get pid in
  let algos = Simlock.algos_for p in
  let results =
    List.map
      (fun a ->
        (a, (throughput ?duration pid a ~threads ~n_locks).Harness.mops))
      algos
  in
  let best_algo, best_mops =
    List.fold_left
      (fun (ba, bm) (a, m) -> if m > bm then (a, m) else (ba, bm))
      (List.hd results) (List.tl results)
  in
  let single =
    List.fold_left
      (fun acc a ->
        Float.max acc
          (throughput ?duration pid a ~threads:1 ~n_locks)
            .Harness.mops)
      0. algos
  in
  {
    algo = best_algo;
    mops = best_mops;
    scalability = (if single > 0. then best_mops /. single else 0.);
  }

(* ------------------------------------------------------------------ *)
(* Figure 6: uncontested lock acquisition latency depending on the
   location of the previous holder.  Two threads alternate: the partner
   acquires and releases, then hands control to the measuring thread
   through a separate flag line; only the measuring thread's
   acquire+release is timed. *)
let uncontested_latency pid algo (distance : Arch.distance) : float option =
  let rounds = 60 in
  let p = Platform.get pid in
  let topo = p.Platform.topo in
  match Topology.pair_at_distance topo distance with
  | None -> None
  | Some (measurer, partner) ->
      let sim = Sim.create p in
      let mem = Sim.memory sim in
      let lock = Simlock.create ~home_core:partner mem p ~n_threads:2 algo in
      let turn = Memory.alloc ~home_core:partner mem in
      let total = ref 0 in
      Sim.spawn sim ~core:partner (fun () ->
          for _ = 1 to rounds do
            while Sim.load turn <> 0 do
              Sim.pause 25
            done;
            lock.Lock_type.acquire ~tid:1;
            lock.Lock_type.release ~tid:1;
            Sim.store turn 1
          done);
      Sim.spawn sim ~core:measurer (fun () ->
          for _ = 1 to rounds do
            while Sim.load turn <> 1 do
              Sim.pause 25
            done;
            let t0 = Sim.now () in
            lock.Lock_type.acquire ~tid:0;
            lock.Lock_type.release ~tid:0;
            total := !total + (Sim.now () - t0);
            Sim.store turn 0
          done);
      ignore (Sim.run sim);
      Some (float_of_int !total /. float_of_int rounds)

(* Single-thread acquisition latency (Figure 6's "single thread" bar):
   the same core re-acquires a lock it just released. *)
let single_thread_latency pid algo : float =
  let rounds = 60 in
  let p = Platform.get pid in
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  let lock = Simlock.create ~home_core:0 mem p ~n_threads:1 algo in
  let total = ref 0 in
  Sim.spawn sim ~core:0 (fun () ->
      (* warm up *)
      lock.Lock_type.acquire ~tid:0;
      lock.Lock_type.release ~tid:0;
      for _ = 1 to rounds do
        let t0 = Sim.now () in
        lock.Lock_type.acquire ~tid:0;
        lock.Lock_type.release ~tid:0;
        total := !total + (Sim.now () - t0)
      done);
  ignore (Sim.run sim);
  float_of_int !total /. float_of_int rounds

(* ------------------------------------------------------------------ *)
(* Figure 3: mean acquire+release latency of the three ticket-lock
   variants on the Opteron as the thread count grows. *)
let figure3_latency ?(duration = 500_000) variant ~threads : float =
  let p = Platform.opteron in
  let _, mean =
    Harness.run_latency p ~threads ~duration
      ~setup:(fun mem ->
        Simlock.create ~home_core:0 mem p ~n_threads:threads variant)
      ~body:(fun lock _mem ~tid ~deadline ->
        let n = ref 0 and cy = ref 0 in
        while Sim.now () < deadline do
          let t0 = Sim.now () in
          lock.Lock_type.acquire ~tid;
          lock.Lock_type.release ~tid;
          cy := !cy + (Sim.now () - t0);
          Sim.pause 200;
          incr n
        done;
        (!n, !cy))
  in
  mean
