(* Robust lock paths: owner-death recovery with EOWNERDEAD witnesses.

   The central claims under test, for every algorithm the factory
   builds: with a crash-stopped holder, (1) every surviving thread
   completes (verdict [Completed], no watchdog stall), (2) exactly one
   recovering acquisition witnesses the dead holder ([Owner_died]),
   (3) the witness arrives before the protected state is reused, so a
   recovery closure restores consistency, and (4) with no faults at
   all the robust paths are just a working lock (all grants [Clean],
   no lost updates). *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_algos p = Simlock.algos_for p

(* Shared-state pair kept equal by every critical section; a holder
   crash between the two stores leaves them unequal until the next
   grant's recovery closure repairs the invariant. *)
type shared = {
  lock : Lock_type.t;
  d1 : Memory.addr;
  d2 : Memory.addr;
  witnesses : int list list ref; (* every Owner_died payload seen *)
}

let robust_cs shared ~tid ~work =
  (match Lock_type.acquire_robust shared.lock ~tid with
  | Lock_type.Clean -> ()
  | Lock_type.Owner_died { dead } ->
      shared.witnesses := dead :: !(shared.witnesses);
      (* repair: make d2 agree with d1 again *)
      Sim.store shared.d2 (Sim.load shared.d1));
  let x = Sim.load shared.d1 in
  Sim.store shared.d1 (x + 1);
  work ();
  Sim.store shared.d2 (x + 1);
  Lock_type.release_robust shared.lock ~tid

(* One crash-stopped holder (workload tid 0 = engine tid 0: the hashed
   spawn order keeps 0 first), five survivors hammering the robust
   path. *)
let crashed_holder_robust ?(platform = Platform.opteron) ?(crash_at = 40_000)
    algo =
  let p = platform in
  let threads = 6 in
  let faults = Fault.crash_stop ~seed:1 [ (0, crash_at) ] in
  let witnesses = ref [] in
  let stats = ref (Lock_type.rstats_zero ()) in
  let r =
    Harness.run ~faults p ~threads ~duration:150_000
      ~setup:(fun mem ->
        let lock = Simlock.create mem p ~n_threads:threads algo in
        stats := lock.Lock_type.rstats;
        {
          lock;
          d1 = Memory.alloc ~home_core:0 mem;
          d2 = Memory.alloc ~home_core:0 mem;
          witnesses;
        })
      ~body:(fun shared _mem ~tid ~deadline ->
        if tid = 0 then begin
          (* the victim: robust-acquires, then dies mid-critical-section
             with d1 already bumped and d2 not yet *)
          (match Lock_type.acquire_robust shared.lock ~tid with
          | Lock_type.Clean -> ()
          | Lock_type.Owner_died { dead } ->
              shared.witnesses := dead :: !(shared.witnesses));
          let x = Sim.load shared.d1 in
          Sim.store shared.d1 (x + 1);
          Sim.pause 1_000_000;
          (* never reached *)
          Sim.store shared.d2 (x + 1);
          Lock_type.release_robust shared.lock ~tid;
          0
        end
        else begin
          let n = ref 0 in
          while Sim.now () < deadline do
            robust_cs shared ~tid ~work:(fun () -> Sim.pause 60);
            incr n;
            Sim.pause 120
          done;
          !n
        end)
  in
  (r, !witnesses, !stats)

let test_owner_death_recovery () =
  List.iter
    (fun algo ->
      let r, witnesses, _ = crashed_holder_robust algo in
      let label s = Printf.sprintf "%s %s" (Simlock.name algo) s in
      check_bool (label "crash recorded") true
        (r.Harness.health.Sim.crashed = [ 0 ]);
      check_bool (label "verdict is Completed") true
        (r.Harness.health.Sim.verdict = Sim.Completed);
      check_bool (label "victim marked incomplete") false
        r.Harness.completed.(0);
      check_bool (label "survivors completed") true
        (Array.for_all (fun c -> c) (Array.sub r.Harness.completed 1 5));
      (* exactly one grant witnessed the dead holder, and named it *)
      check_bool (label "owner death witnessed once") true
        (witnesses = [ [ 0 ] ]);
      check_bool (label "survivors made progress") true (r.Harness.total_ops > 0))
    (all_algos Platform.opteron)

(* The same scenario on a single-socket platform (no hierarchical
   locks there, matching the paper's setup). *)
let test_owner_death_recovery_niagara () =
  List.iter
    (fun algo ->
      let r, witnesses, _ =
        crashed_holder_robust ~platform:Platform.niagara algo
      in
      let label s = Printf.sprintf "niagara %s %s" (Simlock.name algo) s in
      check_bool (label "verdict is Completed") true
        (r.Harness.health.Sim.verdict = Sim.Completed);
      check_bool (label "owner death witnessed once") true
        (witnesses = [ [ 0 ] ]))
    (all_algos Platform.niagara)

(* Robust paths under [Fault.none] are just a working lock: every grant
   Clean, no lost updates, every thread completes. *)
let test_robust_faultless () =
  List.iter
    (fun algo ->
      let p = Platform.opteron in
      let threads = 8 in
      let iters = 40 in
      let witnesses = ref [] in
      let r =
        Harness.run p ~threads ~duration:4_000_000
          ~setup:(fun mem ->
            let lock = Simlock.create mem p ~n_threads:threads algo in
            {
              lock;
              d1 = Memory.alloc ~home_core:0 mem;
              d2 = Memory.alloc ~home_core:0 mem;
              witnesses;
            })
          ~body:(fun shared _mem ~tid ~deadline:_ ->
            for _ = 1 to iters do
              robust_cs shared ~tid ~work:(fun () -> Sim.pause 30);
              Sim.pause 50
            done;
            iters)
      in
      let label s = Printf.sprintf "%s %s" (Simlock.name algo) s in
      check_bool (label "completed") true
        (r.Harness.health.Sim.verdict = Sim.Completed);
      check_bool (label "all clean grants") true (!witnesses = []);
      ())
    (all_algos Platform.opteron)

(* No lost updates through the robust path: re-run the faultless
   workload and check the shared counter equals total increments. *)
let test_robust_counter_exact () =
  List.iter
    (fun algo ->
      let p = Platform.xeon in
      let threads = 6 in
      let iters = 30 in
      let final = ref 0 in
      let r =
        Harness.run p ~threads ~duration:4_000_000
          ~setup:(fun mem ->
            let lock = Simlock.create mem p ~n_threads:threads algo in
            let d1 = Memory.alloc ~home_core:0 mem in
            let d2 = Memory.alloc ~home_core:0 mem in
            (lock, d1, d2, mem))
          ~body:(fun (lock, d1, d2, mem) _mem ~tid ~deadline:_ ->
            for _ = 1 to iters do
              (match Lock_type.acquire_robust lock ~tid with
              | Lock_type.Clean -> ()
              | Lock_type.Owner_died _ -> assert false);
              let x = Sim.load d1 in
              Sim.pause 25;
              Sim.store d1 (x + 1);
              Sim.store d2 (x + 1);
              Lock_type.release_robust lock ~tid;
              Sim.pause 40
            done;
            final := Memory.peek mem d1;
            iters)
      in
      let label s = Printf.sprintf "%s %s" (Simlock.name algo) s in
      check_bool (label "completed") true
        (r.Harness.health.Sim.verdict = Sim.Completed);
      check_int (label "no lost updates") (threads * iters) !final)
    (all_algos Platform.xeon)

(* Recovery bookkeeping: the rstats counters reflect the single
   dead-holder recovery the crashed-holder run performs. *)
let test_rstats_accounting () =
  List.iter
    (fun algo ->
      let _, _, st = crashed_holder_robust algo in
      let label s = Printf.sprintf "%s %s" (Simlock.name algo) s in
      check_bool (label "grants counted") true (st.Lock_type.r_grants > 0);
      check_int (label "one owner death surfaced") 1
        st.Lock_type.r_owner_deaths;
      check_bool (label "dead holder claimed") true
        (st.Lock_type.r_dead_holders >= 1);
      check_bool (label "recovery episode closed") true
        (st.Lock_type.r_recoveries >= 1);
      (* latency is detection -> grant; locks that claim the corpse
         with a real memory operation in between must clock non-zero
         cycles (the MCS/CLH family claims within one atomic block, so
         it can legitimately report a zero-cycle recovery) *)
      if not (List.mem algo [ Simlock.Mcs; Simlock.Clh; Simlock.Hclh ]) then
        check_bool (label "recovery latency measured") true
          (st.Lock_type.r_recovery_cycles > 0))
    (all_algos Platform.opteron)

(* ------------------------------------------------------------------ *)
(* The invariant checker itself: hand-built traces with known defects
   must be flagged, and the crash-aware exemptions must hold.  (The
   chaos sweep only ever shows the checker zero-violation runs, so this
   is the only place its teeth are tested.) *)

let test_invariant_checker_teeth () =
  let module Trace = Ssync_trace.Trace in
  let mk () =
    let tr = Trace.create () in
    let lk = Trace.new_lock tr "MCS" in
    (tr, lk)
  in
  let spawn tr tids =
    List.iter
      (fun t -> Trace.emit tr ~ts:0 (Trace.E_thread { tid = t; core = t }))
      tids
  in
  let acq tr lk ~ts tid =
    Trace.emit tr ~ts (Trace.E_acq { tid; lock = lk; wait = 0; dist = None })
  in
  let rel tr lk ~ts tid =
    Trace.emit tr ~ts (Trace.E_rel { tid; lock = lk; held = 10 })
  in
  let all_done _ = true in
  (* clean alternation: no violations *)
  let tr, lk = mk () in
  spawn tr [ 0; 1 ];
  acq tr lk ~ts:10 0;
  rel tr lk ~ts:20 0;
  acq tr lk ~ts:30 1;
  rel tr lk ~ts:40 1;
  let rep = Invariant.check ~completed:all_done tr in
  check_bool "clean trace passes" true (Invariant.ok rep);
  (* double grant: second acquisition while a live holder is out *)
  let tr, lk = mk () in
  spawn tr [ 0; 1 ];
  acq tr lk ~ts:10 0;
  acq tr lk ~ts:15 1;
  rel tr lk ~ts:20 0;
  rel tr lk ~ts:25 1;
  let rep = Invariant.check ~completed:all_done tr in
  check_bool "double grant flagged" true
    (List.exists
       (fun v -> v.Invariant.v_kind = Invariant.Mutual_exclusion)
       rep.Invariant.violations);
  (* the same overlap is a recovery steal when the holder crashed *)
  let tr, lk = mk () in
  spawn tr [ 0; 1 ];
  acq tr lk ~ts:10 0;
  Trace.emit tr ~ts:12
    (Trace.E_fault { tid = 0; kind = Trace.Crash; cycles = 0 });
  acq tr lk ~ts:15 1;
  rel tr lk ~ts:25 1;
  let rep = Invariant.check ~completed:(fun t -> t <> 0) tr in
  check_bool "steal past a corpse allowed" true (Invariant.ok rep);
  check_int "steal counted" 1 rep.Invariant.steals;
  (* unbounded overtaking on a FIFO lock: t1 waits while t0 churns *)
  let tr, lk = mk () in
  spawn tr [ 0; 1 ];
  Trace.emit tr ~ts:5 (Trace.E_wait { tid = 1; lock = lk });
  for i = 0 to 19 do
    Trace.emit tr ~ts:((i * 20) + 6) (Trace.E_wait { tid = 0; lock = lk });
    acq tr lk ~ts:((i * 20) + 10) 0;
    rel tr lk ~ts:((i * 20) + 15) 0
  done;
  let rep = Invariant.check ~completed:all_done tr in
  check_bool "unbounded overtaking flagged" true
    (List.exists
       (fun v -> v.Invariant.v_kind = Invariant.Overtaking)
       rep.Invariant.violations);
  check_bool "overtaking depth reported" true (rep.Invariant.max_overtakes >= 20);
  (* a never-woken park from a live incomplete thread is a lost wakeup *)
  let tr, _ = mk () in
  spawn tr [ 0; 1 ];
  Trace.emit tr ~ts:10 (Trace.E_park { tid = 1; addr = 7 });
  let rep = Invariant.check ~completed:(fun t -> t = 0) tr in
  check_bool "lost wakeup flagged" true
    (List.exists
       (fun v -> v.Invariant.v_kind = Invariant.Lost_wakeup)
       rep.Invariant.violations);
  (* ...but not when the sleeper was woken, crashed, or completed *)
  let tr, _ = mk () in
  spawn tr [ 0; 1 ];
  Trace.emit tr ~ts:10 (Trace.E_park { tid = 1; addr = 7 });
  Trace.emit tr ~ts:20 (Trace.E_wake { tid = 1; addr = 7 });
  let rep = Invariant.check ~completed:(fun t -> t = 0) tr in
  check_bool "woken sleeper not flagged for wakeup" true
    (not
       (List.exists
          (fun v -> v.Invariant.v_kind = Invariant.Lost_wakeup)
          rep.Invariant.violations));
  (* liveness: a non-crashed spawned thread that never completed *)
  let tr, _ = mk () in
  spawn tr [ 0; 1 ];
  let rep = Invariant.check ~completed:(fun t -> t = 0) tr in
  check_bool "wedged survivor flagged" true
    (List.exists
       (fun v -> v.Invariant.v_kind = Invariant.Liveness)
       rep.Invariant.violations)

(* ------------------------------------------------------------------ *)
(* acquire_timeout edge cases and trylock under a crashed holder. *)

(* Deadline landing in the neighbourhood of the grant instant: sweep
   timeouts across the holder's release time so one of them expires
   exactly as the lock becomes free.  Whatever side the race lands on,
   the call must stay coherent: [false] leaves no trace (the lock is
   immediately acquirable afterwards), [true] means the holder had
   released first (mutual exclusion preserved).  The engine is
   deterministic, so this covers the exact-tie cycle too. *)
let test_timeout_at_grant_boundary () =
  let p = Platform.opteron in
  let hold = 8_000 in
  List.iter
    (fun algo ->
      List.iter
        (fun delta ->
          let timeout = hold + delta in
          let got = ref None in
          let r =
            Harness.run p ~threads:2 ~duration:80_000
              ~setup:(fun mem -> Simlock.create mem p ~n_threads:2 algo)
              ~body:(fun lock _mem ~tid ~deadline:_ ->
                if tid = 0 then begin
                  lock.Lock_type.acquire ~tid;
                  Sim.pause hold;
                  lock.Lock_type.release ~tid;
                  1
                end
                else begin
                  Sim.pause 200;
                  (* the holder wins the initial race; our deadline
                     lands around its release *)
                  let okd =
                    Lock_type.acquire_timeout lock ~tid ~timeout
                  in
                  if okd then begin
                    Sim.pause 50;
                    lock.Lock_type.release ~tid
                  end;
                  got := Some okd;
                  (* timed out or not, the lock must be free now and
                     the timed attempt must have left no trace in it *)
                  Sim.pause 20_000;
                  if not (lock.Lock_type.try_acquire ~tid) then
                    failwith "lock wedged after acquire_timeout";
                  lock.Lock_type.release ~tid;
                  1
                end)
          in
          let label =
            Printf.sprintf "%s delta=%d" (Simlock.name algo) delta
          in
          check_bool (label ^ " completed") true (Harness.completed_all r);
          check_bool (label ^ " returned") true (!got <> None))
        [ -600; -40; -5; 0; 5; 40; 600 ])
    [ Simlock.Ticket; Simlock.Mcs; Simlock.Clh; Simlock.Mutex ]

(* A timed waiter giving up must not eat a wakeup that belongs to a
   parked waiter: holder + parked blocking waiter + timed waiter that
   times out while the other sleeps — the release must still reach the
   sleeper and the run must complete. *)
let test_timeout_while_others_parked () =
  let p = Platform.opteron in
  let timed_out = ref None in
  let r =
    Harness.run ~parking:true p ~threads:3 ~duration:120_000
      ~setup:(fun mem -> Simlock.create mem p ~n_threads:3 Simlock.Mutex)
      ~body:(fun lock _mem ~tid ~deadline:_ ->
        match tid with
        | 0 ->
            lock.Lock_type.acquire ~tid;
            Sim.pause 30_000;
            lock.Lock_type.release ~tid;
            1
        | 1 ->
            Sim.pause 500;
            (* blocking waiter: sleeps until tid 0's release wakes it *)
            lock.Lock_type.acquire ~tid;
            Sim.pause 50;
            lock.Lock_type.release ~tid;
            1
        | _ ->
            Sim.pause 1_000;
            (* expires while the holder still has 25k cycles to go *)
            timed_out :=
              Some (Lock_type.acquire_timeout lock ~tid ~timeout:4_000);
            1)
  in
  check_bool "run completed (no lost wakeup)" true (Harness.completed_all r);
  check_bool "timed waiter gave up" true (!timed_out = Some false)

(* try_acquire against a crash-stopped holder, all nine locks: every
   attempt must return false immediately (the plain path cannot recover
   a dead owner) and leave no trace — so the survivors complete and the
   run never stalls, which is exactly why acquire_timeout is the escape
   hatch for non-robust users. *)
let test_trylock_under_crash () =
  List.iter
    (fun algo ->
      let p = Platform.opteron in
      let threads = 6 in
      let faults = Fault.crash_stop ~seed:1 [ (0, 40_000) ] in
      let snuck = ref 0 in
      let r =
        Harness.run ~faults p ~threads ~duration:100_000
          ~setup:(fun mem -> Simlock.create mem p ~n_threads:threads algo)
          ~body:(fun lock _mem ~tid ~deadline ->
            if tid = 0 then begin
              lock.Lock_type.acquire ~tid;
              Sim.pause 500_000;
              (* never reached: crash-stopped mid-hold *)
              lock.Lock_type.release ~tid;
              0
            end
            else begin
              Sim.pause 1_000;
              (* from here the victim holds the lock until it dies with
                 it: no trylock may ever succeed *)
              let n = ref 0 in
              while Sim.now () < deadline do
                if lock.Lock_type.try_acquire ~tid then incr snuck;
                incr n;
                Sim.pause 400
              done;
              !n
            end)
      in
      let label s = Printf.sprintf "%s %s" (Simlock.name algo) s in
      check_bool (label "crash recorded") true
        (r.Harness.health.Sim.crashed = [ 0 ]);
      check_bool (label "survivors escaped via trylock") true
        (Array.for_all (fun c -> c) (Array.sub r.Harness.completed 1 5));
      check_int (label "no trylock ever succeeded") 0 !snuck)
    Simlock.paper_algos

let suite =
  [
    Alcotest.test_case "owner death: all locks recover (opteron)" `Slow
      test_owner_death_recovery;
    Alcotest.test_case "owner death: all locks recover (niagara)" `Slow
      test_owner_death_recovery_niagara;
    Alcotest.test_case "robust paths are clean without faults" `Slow
      test_robust_faultless;
    Alcotest.test_case "robust counter exact (xeon)" `Slow
      test_robust_counter_exact;
    Alcotest.test_case "rstats accounting" `Quick test_rstats_accounting;
    Alcotest.test_case "invariant checker catches planted defects" `Quick
      test_invariant_checker_teeth;
    Alcotest.test_case "timeout at the grant boundary" `Quick
      test_timeout_at_grant_boundary;
    Alcotest.test_case "timeout while others parked" `Quick
      test_timeout_while_others_parked;
    Alcotest.test_case "trylock under a crashed holder: 9 algos" `Quick
      test_trylock_under_crash;
  ]
