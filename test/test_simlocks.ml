(* Tests of the simulated lock suite: mutual exclusion for all nine
   algorithms on all four platforms, FIFO fairness of the queue-based
   locks, the ticket-variant behaviors of Figure 3, and what lock
   construction allocates, in simulated memory and on the host. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run [threads] threads that each perform [iters] non-atomic
   increments of a shared word under [algo]; any mutual-exclusion
   violation loses updates. *)
let run_mutex_test pid algo ~threads ~iters =
  let p = Platform.get pid in
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  let lock = Simlock.create mem p ~n_threads:threads algo in
  let data = Memory.alloc mem in
  let b = Sim.make_barrier threads in
  for tid = 0 to threads - 1 do
    Sim.spawn sim ~core:(Platform.place p tid) (fun () ->
        Sim.await b;
        for _ = 1 to iters do
          lock.Lock_type.acquire ~tid;
          let v = Sim.load data in
          Sim.pause 30; (* widen the race window *)
          Sim.store data (v + 1);
          lock.Lock_type.release ~tid
        done)
  done;
  ignore (Sim.run sim);
  Memory.peek mem data

let test_mutual_exclusion () =
  List.iter
    (fun pid ->
      let p = Platform.get pid in
      List.iter
        (fun algo ->
          let threads = min 12 (Platform.n_cores p) in
          let iters = 25 in
          let got = run_mutex_test pid algo ~threads ~iters in
          check_int
            (Printf.sprintf "%s/%s no lost updates" (Arch.platform_name pid)
               (Simlock.name algo))
            (threads * iters) got)
        (Simlock.algos_for p))
    Arch.paper_platform_ids

let test_figure3_variants_mutual_exclusion () =
  List.iter
    (fun algo ->
      let got = run_mutex_test Arch.Opteron algo ~threads:12 ~iters:20 in
      check_int (Simlock.name algo) 240 got)
    [ Simlock.Ticket_spin; Simlock.Ticket_prefetchw ]

(* FIFO locks grant in arrival order: with each thread acquiring once
   after staggered arrivals, completion order equals arrival order. *)
let test_fifo_order algo =
  let p = Platform.opteron in
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  let threads = 10 in
  let lock = Simlock.create mem p ~n_threads:threads algo in
  let order = ref [] in
  (* thread 0 holds the lock while the others queue up in tid order *)
  Sim.spawn sim ~core:(Platform.place p 0) (fun () ->
      lock.Lock_type.acquire ~tid:0;
      Sim.pause 100_000;
      lock.Lock_type.release ~tid:0);
  for tid = 1 to threads - 1 do
    Sim.spawn sim ~core:(Platform.place p tid) (fun () ->
        Sim.pause (1000 * tid); (* staggered, well-separated arrivals *)
        lock.Lock_type.acquire ~tid;
        order := tid :: !order;
        Sim.pause 50;
        lock.Lock_type.release ~tid)
  done;
  ignore (Sim.run sim);
  List.rev !order

let test_ticket_fifo () =
  Alcotest.(check (list int))
    "ticket FIFO" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (test_fifo_order Simlock.Ticket)

let test_mcs_fifo () =
  Alcotest.(check (list int))
    "MCS FIFO" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (test_fifo_order Simlock.Mcs)

let test_clh_fifo () =
  Alcotest.(check (list int))
    "CLH FIFO" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (test_fifo_order Simlock.Clh)

(* Uncontested acquire+release should be cheap (no spinning, a handful
   of memory operations). *)
let test_uncontested_latency_sane () =
  List.iter
    (fun pid ->
      let p = Platform.get pid in
      List.iter
        (fun algo ->
          let sim = Sim.create p in
          let mem = Sim.memory sim in
          let lock = Simlock.create mem p ~n_threads:4 algo in
          let cost = ref 0 in
          Sim.spawn sim ~core:0 (fun () ->
              (* warm the lines *)
              lock.Lock_type.acquire ~tid:0;
              lock.Lock_type.release ~tid:0;
              let t0 = Sim.now () in
              lock.Lock_type.acquire ~tid:0;
              lock.Lock_type.release ~tid:0;
              cost := Sim.now () - t0);
          ignore (Sim.run sim);
          check_bool
            (Printf.sprintf "%s/%s uncontested %d cycles in (0, 3000)"
               (Arch.platform_name pid) (Simlock.name algo) !cost)
            true
            (!cost > 0 && !cost < 3000))
        (Simlock.algos_for p))
    Arch.paper_platform_ids

(* Hierarchical locks must actually bound global handoffs: under heavy
   same-cluster traffic, a cohort lock acquires the global lock far
   fewer times than it acquires the local one.  We check indirectly:
   throughput of HTICKET on Xeon under extreme contention with threads
   on two sockets beats TAS. *)
let contended_throughput pid algo ~threads =
  let p = Platform.get pid in
  let r =
    Harness.run p ~threads ~duration:300_000
      ~setup:(fun mem -> Simlock.create mem p ~n_threads:threads algo)
      ~body:(fun lock _mem ~tid ~deadline ->
        let n = ref 0 in
        while Sim.now () < deadline do
          lock.Lock_type.acquire ~tid;
          Sim.pause 40;
          lock.Lock_type.release ~tid;
          Sim.pause 80;
          incr n
        done;
        !n)
  in
  r.Harness.mops

let test_hticket_beats_tas_cross_socket () =
  let tas = contended_throughput Arch.Xeon Simlock.Tas ~threads:20 in
  let ht = contended_throughput Arch.Xeon Simlock.Hticket ~threads:20 in
  check_bool
    (Printf.sprintf "hticket (%.2f) > tas (%.2f) on 2 sockets" ht tas)
    true (ht > tas)

let test_queue_locks_resilient () =
  (* CLH should not collapse from 1 to many threads as badly as TAS
     (section 6.1.2: queue locks are the most resilient). *)
  let t1 = contended_throughput Arch.Opteron Simlock.Clh ~threads:1 in
  let t24 = contended_throughput Arch.Opteron Simlock.Clh ~threads:24 in
  let tas24 = contended_throughput Arch.Opteron Simlock.Tas ~threads:24 in
  check_bool
    (Printf.sprintf "CLH keeps >10%% of single-thread (%.2f -> %.2f)" t1 t24)
    true
    (t24 > 0.1 *. t1);
  check_bool
    (Printf.sprintf "CLH (%.2f) >= TAS (%.2f) at 24 threads" t24 tas24)
    true (t24 >= tas24 *. 0.9)

(* Figure 3's headline: the non-optimized ticket lock is dramatically
   worse than proportional backoff at high thread counts on Opteron. *)
let test_ticket_backoff_helps_on_opteron () =
  let p = Platform.opteron in
  let latency variant threads =
    let _, mean =
      Harness.run_latency p ~threads ~duration:400_000
        ~setup:(fun mem -> Simlock.create mem p ~n_threads:threads variant)
        ~body:(fun lock _mem ~tid ~deadline ->
          let n = ref 0 and cy = ref 0 in
          while Sim.now () < deadline do
            let t0 = Sim.now () in
            lock.Lock_type.acquire ~tid;
            lock.Lock_type.release ~tid;
            cy := !cy + (Sim.now () - t0);
            Sim.pause 300;
            incr n
          done;
          (!n, !cy))
    in
    mean
  in
  let spin = latency Simlock.Ticket_spin 24 in
  let backoff = latency Simlock.Ticket 24 in
  check_bool
    (Printf.sprintf "spin %.0f cy >> backoff %.0f cy" spin backoff)
    true
    (spin > 2. *. backoff)

(* Figure 3 at full contention: at 48 threads the prefetchw variant's
   directed handoff (the releaser's store finds the line reserved by
   the next holder's exclusive probe and pays a directed transfer, not
   the broadcast) must beat plain proportional backoff by a clear
   margin, as on the real Opteron (section 5.3). *)
let test_ticket_prefetchw_wins_at_scale () =
  let backoff =
    Ssync_ccbench.Lock_bench.figure3_latency Simlock.Ticket ~threads:48
  in
  let pfw =
    Ssync_ccbench.Lock_bench.figure3_latency Simlock.Ticket_prefetchw
      ~threads:48
  in
  check_bool
    (Printf.sprintf "backoff (%.0f cy) >= 1.5x prefetchw (%.0f cy)" backoff pfw)
    true
    (backoff >= 1.5 *. pfw)

(* Figure 5 on the Xeon: with a single contended lock spanning all
   eight sockets, the hierarchical locks must not lose to flat CLH —
   cross-socket handoffs dominate a flat FIFO queue there, which is the
   whole argument for cohort locks on this machine. *)
let test_hierarchical_beats_clh_on_xeon () =
  let tp algo =
    (Ssync_ccbench.Lock_bench.throughput Arch.Xeon algo ~threads:40 ~n_locks:1)
      .Harness.mops
  in
  let clh = tp Simlock.Clh in
  let hclh = tp Simlock.Hclh in
  let hticket = tp Simlock.Hticket in
  check_bool
    (Printf.sprintf "hclh (%.2f) >= clh (%.2f) on 4 sockets" hclh clh)
    true (hclh >= clh);
  check_bool
    (Printf.sprintf "hticket (%.2f) >= clh (%.2f) on 4 sockets" hticket clh)
    true (hticket >= clh)

(* ------------------------------------------------------------------ *)
(* Timed acquisition. *)

(* try_acquire: wins a free lock, refuses a held one without leaving a
   trace, and acquire_timeout gives up within its bound — for all nine
   algorithms. *)
let test_try_acquire_semantics () =
  List.iter
    (fun pid ->
      let p = Platform.get pid in
      List.iter
        (fun algo ->
          let label s =
            Printf.sprintf "%s/%s %s" (Arch.platform_name pid)
              (Simlock.name algo) s
          in
          let sim = Sim.create p in
          let mem = Sim.memory sim in
          let lock = Simlock.create mem p ~n_threads:2 algo in
          let free_try = ref false in
          let held_try = ref true in
          let timed_out = ref true in
          let gave_up_at = ref 0 in
          let eventually = ref false in
          Sim.spawn sim ~core:(Platform.place p 0) (fun () ->
              free_try := lock.Lock_type.try_acquire ~tid:0;
              Sim.pause 50_000;
              lock.Lock_type.release ~tid:0);
          Sim.spawn sim ~core:(Platform.place p 1) (fun () ->
              Sim.pause 5_000;
              held_try := lock.Lock_type.try_acquire ~tid:1;
              let t0 = Sim.now () in
              timed_out :=
                not (Lock_type.acquire_timeout lock ~tid:1 ~timeout:10_000);
              gave_up_at := Sim.now () - t0;
              eventually :=
                Lock_type.acquire_timeout lock ~tid:1 ~timeout:200_000;
              if !eventually then lock.Lock_type.release ~tid:1);
          ignore (Sim.run sim ~until:500_000);
          check_bool (label "free trylock wins") true !free_try;
          check_bool (label "held trylock refuses") false !held_try;
          check_bool (label "acquire_timeout gives up") true !timed_out;
          check_bool
            (label (Printf.sprintf "gave up within bound (%d cy)" !gave_up_at))
            true
            (!gave_up_at >= 10_000 && !gave_up_at < 20_000);
          check_bool (label "succeeds once free") true !eventually)
        (Simlock.algos_for p))
    Arch.paper_platform_ids

(* The trylock path must still exclude: increments under
   acquire_timeout-guarded critical sections are never lost, and the
   counter matches the number of successful acquisitions. *)
let test_timeout_mutual_exclusion () =
  let p = Platform.opteron in
  List.iter
    (fun algo ->
      let sim = Sim.create p in
      let mem = Sim.memory sim in
      let threads = 8 in
      let lock = Simlock.create mem p ~n_threads:threads algo in
      let data = Memory.alloc mem in
      let succ = Array.make threads 0 in
      let b = Sim.make_barrier threads in
      for tid = 0 to threads - 1 do
        Sim.spawn sim ~core:(Platform.place p tid) (fun () ->
            Sim.await b;
            for _ = 1 to 30 do
              if Lock_type.acquire_timeout lock ~tid ~timeout:3_000 then begin
                let v = Sim.load data in
                Sim.pause 25;
                Sim.store data (v + 1);
                lock.Lock_type.release ~tid;
                succ.(tid) <- succ.(tid) + 1
              end
            done)
      done;
      ignore (Sim.run sim);
      check_int
        (Printf.sprintf "%s trylock excludes" (Simlock.name algo))
        (Array.fold_left ( + ) 0 succ)
        (Memory.peek mem data))
    (Simlock.algos_for p)

(* ------------------------------------------------------------------ *)
(* Fault injection meets the queue locks: a holder that dies while
   holding wedges every FIFO waiter.  The blocking path must terminate
   via the watchdog with a structured verdict; the timed path must let
   waiters escape and complete with partial results. *)

let crashed_holder_run algo ~timeout =
  let p = Platform.opteron in
  let threads = 6 in
  let faults = Fault.crash_stop ~seed:1 [ (0, 40_000) ] in
  Harness.run ~faults p ~threads ~duration:100_000
    ~setup:(fun mem -> Simlock.create mem p ~n_threads:threads algo)
    ~body:(fun lock _mem ~tid ~deadline ->
      if tid = 0 then begin
        (* the victim: acquires, then is crash-stopped mid-hold *)
        lock.Lock_type.acquire ~tid;
        Sim.pause 500_000;
        lock.Lock_type.release ~tid;
        0
      end
      else begin
        let n = ref 0 in
        while Sim.now () < deadline do
          (match timeout with
          | None ->
              lock.Lock_type.acquire ~tid;
              Sim.pause 50;
              lock.Lock_type.release ~tid;
              incr n
          | Some timeout ->
              if Lock_type.acquire_timeout lock ~tid ~timeout then begin
                Sim.pause 50;
                lock.Lock_type.release ~tid;
                incr n
              end);
          Sim.pause 100
        done;
        !n
      end)

let test_crashed_holder_watchdog () =
  List.iter
    (fun algo ->
      let r = crashed_holder_run algo ~timeout:None in
      let label s = Printf.sprintf "%s %s" (Simlock.name algo) s in
      check_bool (label "crash recorded") true
        (r.Harness.health.Sim.crashed = [ 0 ]);
      check_bool (label "verdict is Stalled") true
        (match r.Harness.health.Sim.verdict with
        | Sim.Stalled _ -> true
        | Sim.Completed -> false);
      check_bool (label "incomplete threads surfaced") false
        (Harness.completed_all r))
    [ Simlock.Mcs; Simlock.Clh; Simlock.Ticket; Simlock.Array_lock ]

let test_timeout_escapes_crashed_holder () =
  List.iter
    (fun algo ->
      let r = crashed_holder_run algo ~timeout:(Some 2_000) in
      let label s = Printf.sprintf "%s %s" (Simlock.name algo) s in
      (* impatient waiters give up on the dead holder: the run finishes
         instead of stalling, with the crash on record *)
      check_bool (label "verdict is Completed") true
        (r.Harness.health.Sim.verdict = Sim.Completed);
      check_bool (label "crash recorded") true
        (r.Harness.health.Sim.crashed = [ 0 ]);
      check_bool (label "victim marked incomplete") false r.Harness.completed.(0);
      check_bool (label "survivors completed") true
        (Array.for_all (fun c -> c) (Array.sub r.Harness.completed 1 5)))
    [ Simlock.Mcs; Simlock.Clh; Simlock.Ticket ]

(* ------------------------------------------------------------------ *)
(* Lock construction: host-side state is built at first use, simulated
   memory exactly as it always was. *)

let every_algo =
  Simlock.paper_algos @ [ Simlock.Ticket_spin; Simlock.Ticket_prefetchw ]

(* Digest of the simulated memory [build] leaves on a fresh memory:
   every word below a sentinel allocated afterwards, with its value, its
   line's home and whether it shares a line with the word before it. *)
let layout_digest p build =
  let mem = Memory.create p in
  build mem;
  let sentinel = Memory.alloc mem in
  let b = Buffer.create 4096 in
  for a = 0 to sentinel - 1 do
    Printf.bprintf b "%d:%d:%b;" (Memory.peek mem a)
      (Memory.line mem a).Memory.home
      (a > 0 && Memory.same_line mem (a - 1) a)
  done;
  Memory.dispose mem;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One entry per (platform, algorithm), digesting its constructions at
   1, 6 and the platform's core count threads; then the simulated ssht
   at (buckets, capacity) = (12, 12) and (512, 48) with 48 threads on
   the Opteron.  Recorded from the eager constructors: a constructor
   that defers host-side work must leave these unchanged. *)
let layout_cases () =
  let locks =
    List.concat_map
      (fun pid ->
        let p = Platform.get pid in
        List.map
          (fun algo ->
            let ds =
              List.map
                (fun n ->
                  layout_digest p (fun mem ->
                      ignore (Simlock.create mem p ~n_threads:n algo)))
                [ 1; 6; Platform.n_cores p ]
            in
            ( Printf.sprintf "%s/%s" (Arch.platform_name pid)
                (Simlock.name algo),
              Digest.to_hex (Digest.string (String.concat "," ds)) ))
          every_algo)
      Arch.all_platform_ids
  in
  let ssht =
    List.concat_map
      (fun (n_buckets, capacity) ->
        List.map
          (fun algo ->
            let p = Platform.opteron in
            ( Printf.sprintf "ssht %dx%d/%s" n_buckets capacity
                (Simlock.name algo),
              layout_digest p (fun mem ->
                  ignore
                    (Ssync_ssht.Ssht_sim.create ~lock_algo:algo mem p
                       ~n_threads:48 ~n_buckets ~capacity)) ))
          [ Simlock.Ticket; Simlock.Hclh ])
      [ (12, 12); (512, 48) ]
  in
  locks @ ssht

let layout_table =
  [
    ("Opteron/TAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron/TTAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron/TICKET", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron/ARRAY", "d1c5b9e8d85800417361dae004497a99");
    ("Opteron/MUTEX", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron/MCS", "bfb4610bcf61d52e88b4fe5f381ffac7");
    ("Opteron/CLH", "b8767d97829c79ec54f50c3dbe47202d");
    ("Opteron/HCLH", "e012985bd990a9e632553a4c7e7aea9d");
    ("Opteron/HTICKET", "e557754171582ec7feb041e3be6e6475");
    ("Opteron/TICKET-SPIN", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron/TICKET-PFW", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon/TAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon/TTAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon/TICKET", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon/ARRAY", "9567fab6922fe2895f94a8dfa23405e7");
    ("Xeon/MUTEX", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon/MCS", "ee897c1f0e8eeaaa65c4ee7f8401790a");
    ("Xeon/CLH", "e8091c76f41f7a880cc69232d834a45d");
    ("Xeon/HCLH", "2973509fcb24f8b3d73634fa8ab0b138");
    ("Xeon/HTICKET", "e557754171582ec7feb041e3be6e6475");
    ("Xeon/TICKET-SPIN", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon/TICKET-PFW", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Niagara/TAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Niagara/TTAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Niagara/TICKET", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Niagara/ARRAY", "486c78273523c1bdff1e0b0b7b9cb980");
    ("Niagara/MUTEX", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Niagara/MCS", "b27b791ad280aebfd9d32fb83e59cea4");
    ("Niagara/CLH", "f5c8e6cfd633c2b60c18f0cb969d5497");
    ("Niagara/HCLH", "a44e5e5bbf04a7959a84560f95def6f1");
    ("Niagara/HTICKET", "e55848bb39fb4823bff2a8d8499e65f1");
    ("Niagara/TICKET-SPIN", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Niagara/TICKET-PFW", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Tilera/TAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Tilera/TTAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Tilera/TICKET", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Tilera/ARRAY", "af962e9693298b9ad98dcc2aa219acac");
    ("Tilera/MUTEX", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Tilera/MCS", "0585049018d6c1caba0780ba318aef28");
    ("Tilera/CLH", "df8ad03819b98e846562877da4bbe082");
    ("Tilera/HCLH", "a475b03c9784102e60fcbf927f473df2");
    ("Tilera/HTICKET", "6cb3e4aaa7d311c64183000fbb45efa3");
    ("Tilera/TICKET-SPIN", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Tilera/TICKET-PFW", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron2/TAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron2/TTAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron2/TICKET", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron2/ARRAY", "1e8acedd7af34a6b73a22ab6233e8a34");
    ("Opteron2/MUTEX", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron2/MCS", "90447bd2995bd16fcc9a04cc2443fe66");
    ("Opteron2/CLH", "5b46dd41364c6281dcf29ed7d8d55a2b");
    ("Opteron2/HCLH", "5a147ab176f70f89e4ab7a96bad09410");
    ("Opteron2/HTICKET", "d1b179341fd5aad412102002c4d64749");
    ("Opteron2/TICKET-SPIN", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Opteron2/TICKET-PFW", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon2/TAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon2/TTAS", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon2/TICKET", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon2/ARRAY", "3e34e2d8f9f842498fadccba878056ef");
    ("Xeon2/MUTEX", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon2/MCS", "830de252f7656a0230177f88b9255a7a");
    ("Xeon2/CLH", "7ff110106bdfebfccad1743bac76c3ac");
    ("Xeon2/HCLH", "4b17b3215467a01ff5e06c54761f5c79");
    ("Xeon2/HTICKET", "d1b179341fd5aad412102002c4d64749");
    ("Xeon2/TICKET-SPIN", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("Xeon2/TICKET-PFW", "b1735a79f2bfac0ba00ec972cbfa1242");
    ("ssht 12x12/TICKET", "93f51f5a693244e4a427c0b1a27a4c64");
    ("ssht 12x12/HCLH", "6a6019c091683437678d8bdacb1f267a");
    ("ssht 512x48/TICKET", "159dfc4226a98a43f965caa2deb50445");
    ("ssht 512x48/HCLH", "152356142348c6158b255ef381656f20");
  ]

let test_construction_layout () =
  let got = layout_cases () in
  check_int "cases" (List.length layout_table) (List.length got);
  List.iter2
    (fun (name, want) (name', d) ->
      Alcotest.(check string) "case" name name';
      Alcotest.(check string) (name ^ " simulated layout") want d)
    layout_table got

(* An ARRAY lock serves every tid below its [n_threads], past 1,024. *)
let test_array_lock_high_tid () =
  let p = Platform.opteron in
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  let lock = Simlock.create mem p ~n_threads:1100 Simlock.Array_lock in
  let done_ = ref false in
  Sim.spawn sim ~core:0 (fun () ->
      lock.Lock_type.acquire ~tid:1099;
      lock.Lock_type.release ~tid:1099;
      done_ := true);
  ignore (Sim.run sim);
  check_bool "tid 1099 acquired and released" true !done_

(* Host words one construction allocates, measured on a memory whose
   line table has room. *)
let construction_words p ~n_threads algo =
  let mem = Memory.create p in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Simlock.create mem p ~n_threads algo));
  let w = Gc.minor_words () -. w0 in
  Memory.dispose mem;
  int_of_float w

(* Locks whose plain path keeps no per-thread state build none: their
   construction costs the same host words at 1 and at 48 threads. *)
let test_construction_words_flat () =
  let p = Platform.opteron in
  List.iter
    (fun algo ->
      check_int
        (Printf.sprintf "%s words at 48 threads = at 1" (Simlock.name algo))
        (construction_words p ~n_threads:1 algo)
        (construction_words p ~n_threads:48 algo))
    Simlock.
      [ Tas; Ttas; Ticket; Ticket_spin; Ticket_prefetchw; Mutex; Hticket ]

(* No constructor allocates a block too large for the minor heap: the
   words allocated directly in the major heap stay flat over 100
   constructions of each algorithm at 48 threads.  Flat means within
   one such block (over 256 words, OCaml's Max_young_wosize): the count
   itself can drift by a few words as the minor heap is promoted. *)
let test_construction_stays_minor () =
  let p = Platform.opteron in
  (* grow a line table with room for 100 of the largest lock and hand
     it to the pool the next memory draws from *)
  let big = Memory.create p in
  for _ = 1 to 1 lsl 16 do
    ignore (Memory.alloc big)
  done;
  Memory.dispose big;
  let direct () =
    (* a minor collection brings the major-heap count up to date *)
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  List.iter
    (fun algo ->
      let mem = Memory.create p in
      let d0 = direct () in
      for _ = 1 to 100 do
        ignore (Sys.opaque_identity (Simlock.create mem p ~n_threads:48 algo))
      done;
      let d = int_of_float (direct () -. d0) in
      Memory.dispose mem;
      check_bool
        (Printf.sprintf "%s: %d words allocated in the major heap"
           (Simlock.name algo) d)
        true
        (abs d <= 256))
    every_algo

(* qcheck: random (platform, algo, threads, iters) never loses updates. *)
let qcheck_mutual_exclusion =
  let gen =
    QCheck.Gen.(
      let* pid = oneofl Arch.paper_platform_ids in
      let p = Platform.get pid in
      let* algo = oneofl (Simlock.algos_for p) in
      let* threads = int_range 2 (min 16 (Platform.n_cores p)) in
      let* iters = int_range 1 15 in
      return (pid, algo, threads, iters))
  in
  QCheck.Test.make ~count:40 ~name:"mutual exclusion (random configs)"
    (QCheck.make gen) (fun (pid, algo, threads, iters) ->
      run_mutex_test pid algo ~threads ~iters = threads * iters)

let suite =
  [
    Alcotest.test_case "mutual exclusion: 9 algos x 4 platforms" `Quick
      test_mutual_exclusion;
    Alcotest.test_case "figure 3 ticket variants exclude" `Quick
      test_figure3_variants_mutual_exclusion;
    Alcotest.test_case "ticket is FIFO" `Quick test_ticket_fifo;
    Alcotest.test_case "MCS is FIFO" `Quick test_mcs_fifo;
    Alcotest.test_case "CLH is FIFO" `Quick test_clh_fifo;
    Alcotest.test_case "uncontested latency sane" `Quick
      test_uncontested_latency_sane;
    Alcotest.test_case "hticket beats TAS across sockets" `Quick
      test_hticket_beats_tas_cross_socket;
    Alcotest.test_case "queue locks resilient to contention" `Quick
      test_queue_locks_resilient;
    Alcotest.test_case "ticket backoff helps (Figure 3)" `Quick
      test_ticket_backoff_helps_on_opteron;
    Alcotest.test_case "prefetchw ticket wins at 48 threads (Figure 3)" `Quick
      test_ticket_prefetchw_wins_at_scale;
    Alcotest.test_case "hierarchical locks hold up on Xeon (Figure 5)" `Quick
      test_hierarchical_beats_clh_on_xeon;
    Alcotest.test_case "try_acquire semantics: 9 algos x 4 platforms" `Quick
      test_try_acquire_semantics;
    Alcotest.test_case "timed acquisition excludes" `Quick
      test_timeout_mutual_exclusion;
    Alcotest.test_case "crashed holder trips the watchdog" `Quick
      test_crashed_holder_watchdog;
    Alcotest.test_case "acquire_timeout escapes a crashed holder" `Quick
      test_timeout_escapes_crashed_holder;
    QCheck_alcotest.to_alcotest qcheck_mutual_exclusion;
    Alcotest.test_case "construction keeps the simulated layout" `Quick
      test_construction_layout;
    Alcotest.test_case "ARRAY serves tids past 1024" `Quick
      test_array_lock_high_tid;
    Alcotest.test_case "construction words flat in n_threads" `Quick
      test_construction_words_flat;
    Alcotest.test_case "construction allocates nothing major" `Quick
      test_construction_stays_minor;
  ]
