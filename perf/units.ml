(* Unit-cost microbenchmarks for the traced run.  Each times one public
   library operation in isolation.  All units are measured once per
   round and every unit reports its median over [rounds] rounds; units
   derived from others (a unit that necessarily runs other layers' work
   has that work's cost subtracted) are derived within each round, so
   slow drift of the host does not leak into the difference.

   The costs are marginal so that count x unit cost can be summed across
   layers without counting anything twice: [resume_ns] is a Sim.load
   without its cache hit, [park_wake_ns] a park/wake handshake without
   its events and memory accesses. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks

type t = {
  event_queue_ns : float;  (** one push + pop at depth 16 *)
  resume_ns : float;
      (** one engine resumption of a thread's memory operation, without
          the memory access itself *)
  hit_ns : (Arch.platform_id * float) list;  (** local-hit Memory.access *)
  xfer_ns : (Arch.platform_id * float) list;
      (** remote-transfer Memory.access at the platform's farthest
          distance class *)
  park_wake_ns : float;  (** one park plus its wakeup, beyond its events *)
  lock_pair_ns : float;  (** uncontended TICKET acquire + release *)
}

let rounds = 5
let pids = Arch.paper_platform_ids

(* Host nanoseconds per unit of [f ()], which returns its unit count. *)
let ns_per f =
  let t0 = Unix.gettimeofday () in
  let n = f () in
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n

let event_queue () =
  let q = Event_queue.create () and p = Event_queue.make_popped () in
  for i = 0 to 15 do
    Event_queue.push q ~time:i ignore
  done;
  ns_per (fun () ->
      let n = 500_000 in
      for i = 1 to n do
        ignore (Event_queue.pop_into q p);
        Event_queue.push q
          ~time:(p.Event_queue.p_time + 1 + (i land 15))
          p.Event_queue.p_run
      done;
      n)

(* Run a fresh simulation on [pid] after [spawn] populated it; returns
   the run's host nanoseconds and counters. *)
let in_sim pid spawn =
  let p = Platform.get pid in
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  spawn sim mem p;
  let t0 = Unix.gettimeofday () in
  ignore (Sim.run sim);
  let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let perf = Sim.perf sim and stats = Stats.copy (Memory.stats mem) in
  Memory.dispose mem;
  (ns, perf, stats)

(* A 1-thread simulation loading one line it holds: every load after
   the first is a local hit resumed by the engine. *)
let load_loop () =
  let n = 100_000 in
  let ns, _, _ =
    in_sim Arch.Opteron (fun sim mem _ ->
        let a = Memory.alloc ~home_core:0 mem in
        Sim.spawn sim ~core:0 (fun () ->
            for _ = 0 to n do
              ignore (Sim.load a)
            done))
  in
  ns /. float_of_int n

(* Memory.access by [cores] in turn on a line [cores.(0)] holds
   Modified: a local hit with one core, a transfer per access with two. *)
let access pid ~cores ~op =
  let mem = Memory.create (Platform.get pid) in
  let a = Memory.alloc ~home_core:cores.(0) mem in
  Memory.force_state mem ~holder:cores.(0) Arch.Modified a;
  let ns =
    ns_per (fun () ->
        let n = 100_000 in
        for i = 1 to n do
          (* far-apart issue times: nothing is ever busy *)
          ignore
            (Memory.access mem ~operand:i
               ~core:cores.(i mod Array.length cores)
               ~now:(i * 100_000) op a)
        done;
        n)
  in
  Memory.dispose mem;
  ns

let far_pair pid =
  let p = Platform.get pid in
  let classes = Latencies.distance_classes pid in
  match
    Topology.pair_at_distance p.Platform.topo
      (List.nth classes (List.length classes - 1))
  with
  | Some (a, b) -> [| a; b |]
  | None -> invalid_arg "Units.far_pair"

(* Host ns a simulation's counted work costs under the other units. *)
let accounted ~event_ns ~hit ~xfer (perf : Sim.perf) (s : Stats.t) =
  let real = Stats.total_ops s - s.Stats.elided_probes in
  let hits = max 0 (s.Stats.local_hits - s.Stats.elided_probes) in
  (float_of_int perf.Sim.events *. event_ns)
  +. (float_of_int hits *. hit)
  +. (float_of_int (real - hits) *. xfer)

(* One thread spins until the other's store changes the flag; every
   handshake parks the spinner and wakes it. *)
let park_wake ~event_ns ~hit ~xfer =
  let n = 10_000 in
  let ns, perf, stats =
    in_sim Arch.Opteron (fun sim mem _ ->
        let flag = Memory.alloc ~home_core:0 mem in
        Sim.spawn sim ~core:0 (fun () ->
            for i = 1 to n do
              ignore (Sim.spin_load flag ~while_:(i - 1) ~poll:100)
            done);
        Sim.spawn sim ~core:1 (fun () ->
            for i = 1 to n do
              Sim.pause 20_000;
              Sim.store flag i
            done))
  in
  (ns -. accounted ~event_ns ~hit ~xfer perf stats)
  /. float_of_int (max 1 perf.Sim.parks)

let lock_pair () =
  let n = 50_000 in
  let ns, _, _ =
    in_sim Arch.Opteron (fun sim mem p ->
        let lock = Simlock.create ~home_core:0 mem p ~n_threads:1 Simlock.Ticket in
        Sim.spawn sim ~core:0 (fun () ->
            for _ = 1 to n do
              lock.Lock_type.acquire ~tid:0;
              lock.Lock_type.release ~tid:0
            done))
  in
  ns /. float_of_int n

let round () =
  let event_queue_ns = event_queue () in
  let hit_ns =
    List.map (fun pid -> (pid, access pid ~cores:[| 0 |] ~op:Arch.Load)) pids
  in
  let xfer_ns =
    List.map (fun pid -> (pid, access pid ~cores:(far_pair pid) ~op:Arch.Store)) pids
  in
  let hit = List.assoc Arch.Opteron hit_ns and xfer = List.assoc Arch.Opteron xfer_ns in
  let resume_ns = load_loop () -. hit in
  {
    event_queue_ns;
    resume_ns;
    hit_ns;
    xfer_ns;
    park_wake_ns = park_wake ~event_ns:(event_queue_ns +. resume_ns) ~hit ~xfer;
    lock_pair_ns = lock_pair ();
  }

let measure () =
  let rs = List.init rounds (fun _ -> round ()) in
  let med f = Stat.median (List.map f rs) in
  let per_pid f = List.map (fun pid -> (pid, med (fun r -> List.assoc pid (f r)))) pids in
  {
    event_queue_ns = med (fun r -> r.event_queue_ns);
    resume_ns = med (fun r -> r.resume_ns);
    hit_ns = per_pid (fun r -> r.hit_ns);
    xfer_ns = per_pid (fun r -> r.xfer_ns);
    park_wake_ns = med (fun r -> r.park_wake_ns);
    lock_pair_ns = med (fun r -> r.lock_pair_ns);
  }

let mean xs =
  List.fold_left (fun a (_, x) -> a +. x) 0. xs /. float_of_int (List.length xs)
