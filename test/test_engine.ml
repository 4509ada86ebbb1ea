(* Tests of the discrete-event engine: virtual time, effects-based
   threads, barriers, determinism and the throughput harness. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_event_queue_order () =
  let q = Event_queue.create () in
  let order = ref [] in
  Event_queue.push q ~time:30 (fun () -> order := 30 :: !order);
  Event_queue.push q ~time:10 (fun () -> order := 10 :: !order);
  Event_queue.push q ~time:20 (fun () -> order := 20 :: !order);
  let p = Event_queue.make_popped () in
  while Event_queue.pop_into q p do
    p.Event_queue.p_run ()
  done;
  Alcotest.(check (list int)) "time order" [ 30; 20; 10 ] !order

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  let order = ref [] in
  for i = 0 to 9 do
    Event_queue.push q ~time:5 (fun () -> order := i :: !order)
  done;
  let p = Event_queue.make_popped () in
  while Event_queue.pop_into q p do
    p.Event_queue.p_run ()
  done;
  Alcotest.(check (list int)) "fifo on ties" [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ]
    !order

let test_time_advances_with_ops () =
  let sim = Sim.create Platform.opteron in
  let a = Memory.alloc (Sim.memory sim) in
  let seen = ref (-1) in
  Sim.spawn sim ~core:0 (fun () ->
      Sim.store a 42;
      ignore (Sim.load a);
      seen := Sim.now ());
  let final = Sim.run sim in
  check_bool "ops consumed cycles" true (!seen > 0);
  check_int "run returns final time" final !seen

let test_pause () =
  let sim = Sim.create Platform.niagara in
  let t_after = ref 0 in
  Sim.spawn sim ~core:0 (fun () ->
      Sim.pause 500;
      t_after := Sim.now ());
  ignore (Sim.run sim);
  check_int "pause advances virtual time" 500 !t_after

let test_two_threads_communicate () =
  let sim = Sim.create Platform.xeon in
  let mem = Sim.memory sim in
  let flag = Memory.alloc mem in
  let data = Memory.alloc mem in
  let got = ref 0 in
  Sim.spawn sim ~core:0 (fun () ->
      Sim.store data 1234;
      Sim.store flag 1);
  Sim.spawn sim ~core:10 (fun () ->
      while Sim.load flag = 0 do
        Sim.pause 50
      done;
      got := Sim.load data);
  ignore (Sim.run sim ~until:1_000_000);
  check_int "message received" 1234 !got

let test_barrier_synchronizes () =
  let sim = Sim.create Platform.tilera in
  let b = Sim.make_barrier 3 in
  let times = Array.make 3 0 in
  List.iteri
    (fun i delay ->
      Sim.spawn sim ~core:i (fun () ->
          Sim.pause delay;
          Sim.await b;
          times.(i) <- Sim.now ()))
    [ 10; 200; 3000 ];
  ignore (Sim.run sim);
  check_int "all leave at the latest arrival" times.(0) times.(1);
  check_int "all leave at the latest arrival'" times.(1) times.(2);
  check_bool "left after slowest" true (times.(0) >= 3000)

let test_determinism () =
  let run_once () =
    let sim = Sim.create Platform.opteron in
    let mem = Sim.memory sim in
    let a = Memory.alloc mem in
    let acc = ref 0 in
    for tid = 0 to 7 do
      Sim.spawn sim ~core:(tid * 3) (fun () ->
          for _ = 1 to 20 do
            ignore (Sim.fai a);
            Sim.pause 30
          done;
          acc := !acc + Sim.now ())
    done;
    let t = Sim.run sim in
    (t, !acc, Memory.peek mem a)
  in
  let r1 = run_once () and r2 = run_once () in
  check_bool "identical runs" true (r1 = r2)

let test_fai_is_atomic_under_concurrency () =
  let sim = Sim.create Platform.xeon in
  let mem = Sim.memory sim in
  let a = Memory.alloc mem in
  let per_thread = 50 and threads = 16 in
  for tid = 0 to threads - 1 do
    Sim.spawn sim ~core:tid (fun () ->
        for _ = 1 to per_thread do
          ignore (Sim.fai a)
        done)
  done;
  ignore (Sim.run sim);
  check_int "all increments counted" (per_thread * threads) (Memory.peek mem a)

let test_runaway_protection () =
  let sim = Sim.create Platform.opteron in
  Sim.spawn sim ~core:0 (fun () ->
      while true do
        Sim.pause 10
      done);
  (* [until] bound stops a spinning thread *)
  let t = Sim.run sim ~until:5_000 in
  check_bool "bounded by until" true (t <= 5_100)

let test_harness_counts_ops () =
  let r =
    Harness.run Platform.opteron ~threads:4 ~duration:50_000
      ~setup:(fun mem -> Memory.alloc mem)
      ~body:(fun a _mem ~tid:_ ~deadline ->
        let n = ref 0 in
        while Sim.now () < deadline do
          ignore (Sim.fai a);
          Sim.pause 100;
          incr n
        done;
        !n)
  in
  check_int "threads" 4 (Array.length r.Harness.ops);
  check_bool "some ops on each thread" true
    (Array.for_all (fun n -> n > 10) r.Harness.ops);
  check_bool "mops positive" true (r.Harness.mops > 0.)

let test_harness_rejects_bad_args () =
  let fails f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "zero threads" true
    (fails (fun () ->
         Harness.run Platform.opteron ~threads:0 ~duration:100
           ~setup:(fun _ -> ())
           ~body:(fun () _ ~tid:_ ~deadline:_ -> 0)));
  check_bool "too many threads" true
    (fails (fun () ->
         Harness.run Platform.tilera ~threads:37 ~duration:100
           ~setup:(fun _ -> ())
           ~body:(fun () _ ~tid:_ ~deadline:_ -> 0)))

(* [Harness.simulate] gives the memory back on every exit: after it
   returns, and after an exception from [build], from a thread during
   the run or from the result closure, the memory it built holds no
   line, though the run had allocated one. *)
let test_simulate_disposes () =
  let exception Stop in
  let simulate raise_in =
    let built = ref None in
    let v =
      try
        Harness.simulate ~until:10_000 Platform.opteron (fun sim mem ->
            built := Some mem;
            let a = Memory.alloc mem in
            if raise_in = `Build then raise Stop;
            Sim.spawn sim ~core:0 (fun () ->
                ignore (Sim.fai a);
                if raise_in = `Run then raise Stop);
            fun _ -> if raise_in = `Result then raise Stop else Memory.n_lines mem)
      with Stop -> -1
    in
    (v, Memory.n_lines (Option.get !built))
  in
  let v, after = simulate `None in
  check_bool "the run had a line" true (v > 0);
  check_int "disposed on return" 0 after;
  List.iter
    (fun (name, where) ->
      let v, after = simulate where in
      check_int (name ^ " raised") (-1) v;
      check_int ("disposed when " ^ name ^ " raises") 0 after)
    [ ("build", `Build); ("the run", `Run); ("the result closure", `Result) ]

(* ------------------------------------------------------------------ *)
(* Fault injection and the progress watchdog. *)

(* A deterministic contended workload for the fault tests. *)
let fault_workload ?faults ~threads ~duration () =
  Harness.run ?faults Platform.xeon ~threads ~duration
    ~setup:(fun mem -> Memory.alloc mem)
    ~body:(fun a _mem ~tid ~deadline ->
      let n = ref 0 in
      while Sim.now () < deadline do
        ignore (Sim.fai a);
        Sim.pause (60 + (tid * 7));
        incr n
      done;
      !n)

let result_fingerprint (r : Harness.result) =
  (Array.to_list r.Harness.ops,
   Array.to_list r.Harness.completed,
   r.Harness.total_ops,
   r.Harness.health)

let test_fault_seed_determinism () =
  let faults =
    {
      Fault.none with
      Fault.seed = 7;
      preempt_prob = 0.01;
      preempt_cycles = (1_000, 8_000);
      jitter_prob = 0.2;
      jitter_cycles = (10, 200);
    }
  in
  let r1 = fault_workload ~faults ~threads:8 ~duration:80_000 () in
  let r2 = fault_workload ~faults ~threads:8 ~duration:80_000 () in
  check_bool "same fault seed, identical results" true
    (result_fingerprint r1 = result_fingerprint r2);
  check_bool "faults were actually injected" true
    (r1.Harness.health.Sim.preemptions > 0
    && r1.Harness.health.Sim.jitter_events > 0)

let test_faults_slow_the_run () =
  let faults =
    { (Fault.preemption ~seed:3 ~cycles:(2_000, 10_000) 0.02) with
      Fault.jitter_prob = 0.3; jitter_cycles = (50, 400) }
  in
  let clean = fault_workload ~threads:8 ~duration:80_000 () in
  let faulty = fault_workload ~faults ~threads:8 ~duration:80_000 () in
  check_bool
    (Printf.sprintf "preemption+jitter cost throughput (%d -> %d ops)"
       clean.Harness.total_ops faulty.Harness.total_ops)
    true
    (faulty.Harness.total_ops < clean.Harness.total_ops)

let test_faults_disabled_is_noop () =
  (* [Fault.none] must consume no draws and perturb nothing: the layer
     is strictly opt-in. *)
  let implicit = fault_workload ~threads:6 ~duration:60_000 () in
  let explicit =
    fault_workload ~faults:Fault.none ~threads:6 ~duration:60_000 ()
  in
  check_bool "Fault.none is the default" true
    (result_fingerprint implicit = result_fingerprint explicit);
  check_bool "clean run reports Completed" true
    (implicit.Harness.health.Sim.verdict = Sim.Completed);
  check_bool "clean run injected nothing" true
    (implicit.Harness.health.Sim.preemptions = 0
    && implicit.Harness.health.Sim.jitter_events = 0
    && implicit.Harness.health.Sim.crashed = []);
  check_bool "all threads completed" true (Harness.completed_all implicit)

let test_runaway_exception () =
  let sim = Sim.create Platform.opteron in
  Sim.spawn sim ~core:0 (fun () ->
      while true do
        Sim.pause 10
      done);
  let raised =
    try
      ignore (Sim.run sim ~max_events:1_000);
      false
    with Sim.Simulation_runaway n -> n > 1_000
  in
  check_bool "max_events raises Simulation_runaway" true raised

let test_watchdog_deadlock_verdict () =
  (* a barrier that never fills: the queue drains with a live thread,
     which the watchdog must report instead of claiming completion *)
  let sim = Sim.create Platform.opteron in
  let b = Sim.make_barrier 2 in
  Sim.spawn sim ~core:0 (fun () ->
      Sim.pause 10;
      Sim.await b);
  let _, h = Sim.run_health sim in
  (match h.Sim.verdict with
  | Sim.Stalled { tid = 0; core = 0; _ } -> ()
  | v -> Alcotest.failf "expected stalled tid 0, got %s" (Sim.verdict_to_string v));
  check_int "nothing dropped (deadlock, not backstop)" 0 h.Sim.dropped_events

let test_watchdog_crash_stall_verdict () =
  (* thread 0 takes a TAS "lock" and crash-stops while holding it;
     thread 1 spins forever and must be reported as stalled, with the
     crash recorded — no hang, no silent truncation *)
  let faults = Fault.crash_stop ~seed:1 [ (0, 500) ] in
  let sim = Sim.create ~faults Platform.opteron in
  let mem = Sim.memory sim in
  let flag = Memory.alloc mem in
  Sim.spawn sim ~core:0 (fun () ->
      ignore (Sim.tas flag);
      Sim.pause 5_000;
      (* crash-stops before this release runs *)
      Sim.store flag 0);
  Sim.spawn sim ~core:6 (fun () ->
      while Sim.load flag = 0 do
        Sim.pause 10
      done;
      while Sim.load flag = 1 do
        Sim.pause 40
      done);
  let _, h = Sim.run_health sim ~until:50_000 in
  check_bool "crash recorded" true (h.Sim.crashed = [ 0 ]);
  (match h.Sim.verdict with
  | Sim.Stalled { tid = 1; _ } -> ()
  | v -> Alcotest.failf "expected stalled tid 1, got %s" (Sim.verdict_to_string v));
  check_bool "backstop dropped the spin tail" true (h.Sim.dropped_events > 0)

(* A two-phase workload: run to completion, spawn a second wave of
   threads on the same lines, run again. *)
let two_phase () =
  let p = Platform.get Arch.Opteron in
  let topo = p.Platform.topo in
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  let core_of_node = Array.make topo.Topology.n_nodes (-1) in
  for c = topo.Topology.n_cores - 1 downto 0 do
    core_of_node.(topo.Topology.node_of_core c) <- c
  done;
  let nodes = 4 in
  let lines =
    Array.init nodes (fun i -> Memory.alloc ~home_core:core_of_node.(i) mem)
  in
  let finals = Array.make nodes 0 in
  let wave iters =
    for i = 0 to nodes - 1 do
      let a = lines.(i) in
      Sim.spawn sim ~core:core_of_node.(i) (fun () ->
          for _ = 1 to iters do
            let v = Sim.load a in
            Sim.store a (v + 1);
            ignore (Sim.fai a);
            Sim.pause (40 + (i * 17))
          done;
          finals.(i) <- Sim.load a)
    done
  in
  wave 150;
  let t1, h1 = Sim.run_health sim in
  let p1 = Sim.perf sim in
  wave 100;
  let t2, h2 = Sim.run_health sim in
  let p2 = Sim.perf sim in
  ((t1, h1, t2, h2), Array.to_list finals, p1, p2)

(* Each of a wave's 4 threads is resumed once at its start, once per
   load, store, fai and pause, and once for its final load. *)
let test_two_phase_run () =
  let times, finals, p1, p2 = two_phase () in
  let times', finals', _, p2' = two_phase () in
  let t1, _, t2, _ = times in
  let steps iters = 4 * (2 + (4 * iters)) in
  check_bool "second run advances the clock" true (t2 > t1);
  check_bool "deterministic: times and verdicts" true (times = times');
  check_bool "deterministic: final values" true (finals = finals');
  check_bool "deterministic: perf" true (p2 = p2');
  check_int "first run: every step counted" (steps 150) p1.Sim.events;
  check_int "perf is cumulative: both runs' steps" (steps 150 + steps 100)
    p2.Sim.events;
  check_int "perf is cumulative: the final clock" t2 p2.Sim.sim_cycles;
  check_int "first run: its clock" t1 p1.Sim.sim_cycles

let test_fault_spec_validation () =
  let fails f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "bad probability" true
    (fails (fun () -> Sim.create ~faults:(Fault.preemption 1.5) Platform.opteron));
  check_bool "bad cycle range" true
    (fails (fun () ->
         Sim.create
           ~faults:{ Fault.none with Fault.preempt_prob = 0.1; preempt_cycles = (10, 5) }
           Platform.opteron));
  check_bool "bad crash tid" true
    (fails (fun () ->
         Sim.create ~faults:(Fault.crash_stop [ (-1, 0) ]) Platform.opteron))

(* ---------------------- effect-free direct-run --------------------- *)

(* A thread's own steps are plain calls on its stack, waits included.
   In a 1-thread fault-free simulation nothing else is ever queued, so
   every step direct-runs — one pop starts the thread, then each step
   that takes time is one direct-run resumption (7 x 100 stays under
   the 1000-step fuel, so no pop intervenes) — and none of them may
   allocate, parking on or off.  A spin whose first probe succeeds is
   one step with [~poll:0] and two (its pause, then its probe) with
   [~poll:10]. *)
let test_direct_run_allocation_free () =
  List.iter
    (fun parking ->
      let sim = Sim.create ~parking Platform.opteron in
      let a = Memory.alloc (Sim.memory sim) in
      let n = 100 in
      let words = ref [] in
      Sim.spawn sim ~core:0 (fun () ->
          let words_during = Test_coherence.minor_words_during in
          let overhead = words_during ignore in
          let measure name f =
            let w = ref 0 in
            for _ = 1 to n do
              w := !w + words_during f - overhead
            done;
            words := (name, !w) :: !words
          in
          measure "load" (fun () -> ignore (Sim.load a));
          measure "store" (fun () -> Sim.store a 7);
          measure "fai" (fun () -> ignore (Sim.fai a));
          measure "pause" (fun () -> Sim.pause 10);
          measure "now" (fun () -> ignore (Sim.now ()));
          measure "spin ~poll:0, first probe succeeds" (fun () ->
              ignore (Sim.spin_load a ~while_:(-1) ~poll:0));
          measure "spin ~poll:10, first probe succeeds" (fun () ->
              ignore (Sim.spin_load a ~while_:(-1) ~poll:10)));
      ignore (Sim.run sim);
      let label = if parking then "parking on" else "parking off" in
      check_int (label ^ ": every step direct-ran") (1 + (7 * n))
        (Sim.perf sim).Sim.events;
      List.iter
        (fun (name, w) ->
          check_int (Printf.sprintf "%s: %s allocates nothing" label name) 0 w)
        (List.rev !words))
    [ true; false ]

(* A step that cannot direct-run is queued: the thread suspends, and the
   queue pushes and pops its runner.  Threads pausing the same span in
   lockstep tie the queue head at every step, so none direct-runs.  A
   queued step allocates the suspension's continuation, 2 words, and
   nothing in the queue.  Runs of [n] and [2n] pauses per
   thread are measured whole, and their difference cancels each thread's
   start and finish. *)
let test_queued_step_allocation () =
  let run_words threads n =
    let sim = Sim.create Platform.opteron in
    for core = 0 to threads - 1 do
      Sim.spawn sim ~core (fun () ->
          for _ = 1 to n do
            Sim.pause 10
          done)
    done;
    Test_coherence.minor_words_during (fun () -> ignore (Sim.run sim))
  in
  let n = 1_000 in
  List.iter
    (fun threads ->
      let words = run_words threads (2 * n) - run_words threads n in
      let steps = threads * n in
      check_bool
        (Printf.sprintf "%d threads: %d words for %d queued steps (at most 2 each)"
           threads words steps)
        true
        (words <= 2 * steps))
    [ 2; 32 ]

(* [queued] counts the resumptions popped from the queue; the rest of
   [events] direct-ran.  Two threads pausing the same span tie the head
   at every step, so every resumption is queued.  One thread alone is
   queued at its start and then once per 1,001 steps: the fuel bound
   lets 1,000 steps in a row direct-run.  Run as a pool job through
   [Harness.simulate], the job's booked counters carry the split. *)
let test_queued_split () =
  let run threads n =
    let job () =
      Harness.simulate Platform.opteron (fun sim _ ->
          for core = 0 to threads - 1 do
            Sim.spawn sim ~core (fun () ->
                for _ = 1 to n do
                  Sim.pause 10
                done)
          done;
          fun _ -> Sim.perf sim)
    in
    match Pool.run ~jobs:1 [| job |] with
    | [| (p, s) |] -> (p, s.Pool.perf)
    | _ -> assert false
  in
  let p, d = run 2 500 in
  check_int "2 threads: events" (2 * 501) p.Sim.events;
  check_int "2 threads: every resumption queued" p.Sim.events p.Sim.queued;
  check_int "2 threads: the job's counters" p.Sim.queued d.Sim.queued;
  let n = 5_005 in
  let p, d = run 1 n in
  check_int "1 thread: events" (1 + n) p.Sim.events;
  check_int "1 thread: queued at the start and the fuel bound"
    (1 + (n / 1_001))
    p.Sim.queued;
  check_int "1 thread: the job's counters" p.Sim.queued d.Sim.queued

(* The spin primitives pause [poll] before every probe, the first one
   included, since callers probe before they call: on a cached word
   already unequal to [while_] (a 3-cycle Opteron hit), [~poll:100]
   returns after 103 cycles and [~poll:0] after 3, parked or polled. *)
let test_spin_pauses_first () =
  List.iter
    (fun parking ->
      let sim = Sim.create ~parking Platform.opteron in
      let a = Memory.alloc (Sim.memory sim) in
      let took = ref [] in
      Sim.spawn sim ~core:0 (fun () ->
          ignore (Sim.load a);
          List.iter
            (fun poll ->
              let t0 = Sim.now () in
              let v = Sim.spin_load a ~while_:5 ~poll in
              took := (poll, v, Sim.now () - t0) :: !took)
            [ 100; 0 ]);
      ignore (Sim.run sim);
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "(poll, result, cycles), parking %b" parking)
        [ (100, 0, 103); (0, 0, 3) ]
        (List.rev !took))
    [ true; false ]

(* Every operation of a thread's own, waits included, called outside
   any thread. *)
let thread_ops a b pk =
  [
    ("load", fun () -> ignore (Sim.load a));
    ("store", fun () -> Sim.store a 1);
    ("store_posted", fun () -> Sim.store_posted a 1);
    ("cas", fun () -> ignore (Sim.cas a ~expected:0 ~desired:1));
    ("cas_fetch", fun () -> ignore (Sim.cas_fetch a ~expected:0 ~desired:1));
    ("fai", fun () -> ignore (Sim.fai a));
    ("faa", fun () -> ignore (Sim.faa a 2));
    ("faa_store", fun () -> ignore (Sim.faa_store a 2));
    ("tas", fun () -> ignore (Sim.tas a));
    ("swap", fun () -> ignore (Sim.swap a 3));
    ("pause", fun () -> Sim.pause 5);
    ("now", fun () -> ignore (Sim.now ()));
    ("self_core", fun () -> ignore (Sim.self_core ()));
    ("self_tid", fun () -> ignore (Sim.self_tid ()));
    ("event_driven_waits", fun () -> ignore (Sim.event_driven_waits ()));
    ("tid_crashed", fun () -> ignore (Sim.tid_crashed 0));
    ("spin_load", fun () -> ignore (Sim.spin_load a ~while_:0 ~poll:10));
    ("spin_tas", fun () -> Sim.spin_tas a ~poll:10);
    ("spin_cas", fun () -> Sim.spin_cas a ~expected:0 ~desired:1 ~poll:10);
    ("spin_swap", fun () -> ignore (Sim.spin_swap a 3 ~while_:0 ~poll:10));
    ("spin_faa0", fun () -> ignore (Sim.spin_faa0 a ~while_:0 ~poll:10));
    ("await", fun () -> Sim.await b);
    ("park", fun () -> Sim.park pk ~poll:10);
    ("unpark", fun () -> Sim.unpark pk);
  ]

let check_unhandled ~moment a b pk =
  List.iter
    (fun (name, op) ->
      let raised =
        match op () with () -> false | exception Effect.Unhandled _ -> true
      in
      check_bool (Printf.sprintf "%s %s raises Effect.Unhandled" name moment)
        true raised)
    (thread_ops a b pk)

let test_ops_outside_threads () =
  let bar = Sim.make_barrier 2 and pk = Sim.make_parker () in
  let sim = Sim.create Platform.opteron in
  let a = Memory.alloc (Sim.memory sim) in
  Sim.spawn sim ~core:0 (fun () ->
      Sim.store a 5;
      Sim.pause 10);
  check_unhandled ~moment:"before the run" a bar pk;
  ignore (Sim.run sim);
  check_unhandled ~moment:"after a completed run" a bar pk;
  check_int "the refused ops touched nothing" 5
    (Memory.peek (Sim.memory sim) a);
  let sim = Sim.create Platform.opteron in
  let b = Memory.alloc (Sim.memory sim) in
  Sim.spawn sim ~core:0 (fun () ->
      Sim.store b 5;
      failwith "thread body failed");
  (match Sim.run sim with
  | _ -> Alcotest.fail "the thread's exception was lost"
  | exception Failure _ -> ());
  check_unhandled ~moment:"after a run whose thread raised" b bar pk;
  check_int "the refused ops touched nothing'" 5
    (Memory.peek (Sim.memory sim) b);
  (* the refused waits left the barrier and the parker as built: the
     barrier still holds its first arrival until the second, and the
     parker seats a waiter *)
  let sim = Sim.create Platform.opteron in
  let passed = Array.make 3 (-1) in
  Sim.spawn sim ~core:0 (fun () ->
      Sim.pause 10;
      Sim.await bar;
      passed.(0) <- Sim.now ();
      Sim.pause 15;
      Sim.unpark pk);
  Sim.spawn sim ~core:1 (fun () ->
      Sim.await bar;
      passed.(1) <- Sim.now ();
      Sim.park pk ~poll:10;
      passed.(2) <- Sim.now ());
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "barrier at 10, parker woken on its grid at 30"
    [ 10; 10; 30 ] (Array.to_list passed)

(* Build and run a simulation — completed or ended by its thread's
   exception — leaving only a weak pointer to it. *)
let[@inline never] run_and_forget w i ~raises =
  let sim = Sim.create Platform.opteron in
  let a = Memory.alloc (Sim.memory sim) in
  Sim.spawn sim ~core:0 (fun () ->
      Sim.store a 1;
      Sim.pause 10;
      if raises then failwith "thread body failed");
  Sim.spawn sim ~core:1 (fun () -> ignore (Sim.load a));
  (try ignore (Sim.run sim) with Failure _ -> ());
  Weak.set w i (Some sim)

(* Nothing the engine keeps per domain (the current-thread cell among
   it) holds on to a simulation after its run. *)
let test_finished_sim_collectable () =
  let w = Weak.create 2 in
  run_and_forget w 0 ~raises:false;
  run_and_forget w 1 ~raises:true;
  Gc.full_major ();
  check_bool "completed simulation collected" true
    (Option.is_none (Weak.get w 0));
  check_bool "simulation whose thread raised collected" true
    (Option.is_none (Weak.get w 1))

(* qcheck: counter increments across random thread/iteration mixes are
   never lost. *)
let qcheck_no_lost_updates =
  QCheck.Test.make ~count:60 ~name:"no lost updates (random mixes)"
    QCheck.(
      make
        Gen.(
          triple (oneofl Arch.paper_platform_ids) (int_range 1 12)
            (int_range 1 40)))
    (fun (pid, threads, iters) ->
      let p = Platform.get pid in
      let threads = min threads (Platform.n_cores p) in
      let sim = Sim.create p in
      let mem = Sim.memory sim in
      let a = Memory.alloc mem in
      for tid = 0 to threads - 1 do
        Sim.spawn sim ~core:(Platform.place p tid) (fun () ->
            for _ = 1 to iters do
              ignore (Sim.fai a);
              Sim.pause ((tid * 13 mod 31) + 1)
            done)
      done;
      ignore (Sim.run sim);
      Memory.peek mem a = threads * iters)

(* One wait mode per spec: parkers park ([event_driven_waits]) only in
   the parked mode; spin waits park there and in the exact mode (a
   positive fault probability), and poll under a crash spec or with
   parking off.  Thread 1 spins on a word thread 0 sets 5,000 cycles
   in; the crash spec names a thread that is never spawned. *)
let test_wait_modes () =
  let row name ?(parking = true) faults ~event_driven ~parks =
    let sim = Sim.create ~faults ~parking Platform.opteron in
    let a = Memory.alloc (Sim.memory sim) in
    let seen = ref [] in
    for core = 0 to 1 do
      Sim.spawn sim ~core (fun () ->
          seen := Sim.event_driven_waits () :: !seen;
          if core = 0 then begin
            Sim.pause 5_000;
            Sim.store a 1
          end
          else ignore (Sim.spin_load a ~while_:0 ~poll:20))
    done;
    ignore (Sim.run sim);
    check_bool (name ^ ": event_driven_waits") true
      (!seen = [ event_driven; event_driven ]);
    check_bool (name ^ ": spin waits park") parks ((Sim.perf sim).Sim.parks > 0)
  in
  row "Fault.none" Fault.none ~event_driven:true ~parks:true;
  row "preemption 1e-3" (Fault.preemption 1e-3) ~event_driven:false ~parks:true;
  row "preemption 0." (Fault.preemption 0.) ~event_driven:true ~parks:true;
  row "crash spec" (Fault.crash_stop [ (5, 1_000) ]) ~event_driven:false
    ~parks:false;
  row "parking off" ~parking:false Fault.none ~event_driven:false ~parks:false

let suite =
  [
    Alcotest.test_case "event queue orders by time" `Quick
      test_event_queue_order;
    Alcotest.test_case "event queue FIFO on ties" `Quick
      test_event_queue_fifo_ties;
    Alcotest.test_case "ops advance virtual time" `Quick
      test_time_advances_with_ops;
    Alcotest.test_case "pause" `Quick test_pause;
    Alcotest.test_case "threads communicate through memory" `Quick
      test_two_threads_communicate;
    Alcotest.test_case "barrier synchronizes" `Quick test_barrier_synchronizes;
    Alcotest.test_case "simulation is deterministic" `Quick test_determinism;
    Alcotest.test_case "FAI atomic under concurrency" `Quick
      test_fai_is_atomic_under_concurrency;
    Alcotest.test_case "runaway protection" `Quick test_runaway_protection;
    Alcotest.test_case "harness counts ops" `Quick test_harness_counts_ops;
    Alcotest.test_case "harness validates arguments" `Quick
      test_harness_rejects_bad_args;
    Alcotest.test_case "fault seed determinism" `Quick
      test_fault_seed_determinism;
    Alcotest.test_case "faults slow the run" `Quick test_faults_slow_the_run;
    Alcotest.test_case "fault layer disabled is a no-op" `Quick
      test_faults_disabled_is_noop;
    Alcotest.test_case "Simulation_runaway raised at max_events" `Quick
      test_runaway_exception;
    Alcotest.test_case "two-phase run: deterministic, perf cumulative" `Quick
      test_two_phase_run;
    Alcotest.test_case "watchdog reports deadlock" `Quick
      test_watchdog_deadlock_verdict;
    Alcotest.test_case "watchdog reports crash-induced stall" `Quick
      test_watchdog_crash_stall_verdict;
    Alcotest.test_case "fault spec validation" `Quick
      test_fault_spec_validation;
    Alcotest.test_case "direct-run ops allocate nothing" `Quick
      test_direct_run_allocation_free;
    Alcotest.test_case "a queued step allocates at most 2 words" `Quick
      test_queued_step_allocation;
    Alcotest.test_case "ops outside a thread raise Effect.Unhandled" `Quick
      test_ops_outside_threads;
    Alcotest.test_case "a finished simulation can be collected" `Quick
      test_finished_sim_collectable;
    QCheck_alcotest.to_alcotest qcheck_no_lost_updates;
    Alcotest.test_case "spins pause before every probe" `Quick
      test_spin_pauses_first;
    Alcotest.test_case "simulate disposes on every exit" `Quick
      test_simulate_disposes;
    Alcotest.test_case "queued counts the pops, not the direct-runs" `Quick
      test_queued_split;
    Alcotest.test_case "wait mode: one per spec" `Quick test_wait_modes;
  ]
