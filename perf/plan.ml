(* The benchmark's workloads: seeded job plans built only from the
   simulator's public entry points, and what one job reports.

   Each job builds its own simulation, runs it to completion and
   returns an [outcome].  The simulated results in an outcome are
   locked down by golden digests; the engine counters (events, parks,
   wakeups, elided probes) stay out of the digest, because a legitimate
   engine speed-up may change them.

   Seed 0 replays the paper's exact per-thread streams, so the seed-0
   plans reproduce the figure harness's fig5, fig7 and fig11 jobs.  A
   seed s > 0 reseeds the lock choice, the keys and op mix, the fault
   streams, and draws the pause outside the critical section uniformly
   within +-50% of the paper's value. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks
module Rng = Ssync_workload.Rng
module Op_mix = Ssync_workload.Op_mix
module Ssht_sim = Ssync_ssht.Ssht_sim
module Ssht_mp = Ssync_ssht.Ssht_mp
module Trace = Ssync_trace.Trace
module Chrome = Ssync_trace.Chrome
module Metrics = Ssync_metrics.Metrics

type workload = Ssht | Sparse_locks | Hot_lock | Preempt | Observed

let workloads = [ Ssht; Sparse_locks; Hot_lock; Preempt; Observed ]

let name = function
  | Ssht -> "ssht"
  | Sparse_locks -> "sparse_locks"
  | Hot_lock -> "hot_lock"
  | Preempt -> "preempt"
  | Observed -> "observed"

let of_string s = List.find_opt (fun w -> name w = s) workloads

(* Measured window per job, in simulated cycles. *)
let default_window = function
  | Ssht | Observed -> 60_000
  | Sparse_locks -> 250_000
  | Hot_lock -> 2_500_000
  | Preempt -> 80_000

type kind =
  | Lock of { algo : Simlock.algo; n_locks : int; faults : Fault.spec }
  | Ssht_lock of { algo : Simlock.algo; n_buckets : int; capacity : int }
  | Ssht_mp of { n_buckets : int; capacity : int }

type job = {
  index : int;
  pid : Arch.platform_id;
  threads : int;
  window : int;
  seed : int;
  kind : kind;
  observed : bool;  (** a trace ring and metric sampling are installed *)
}

let kind_label = function
  | Lock { algo; _ } | Ssht_lock { algo; _ } -> Simlock.name algo
  | Ssht_mp _ -> "mp"

(* ------------------------------------------------------------------ *)
(* Seeds *)

(* Seed 0 keeps a stream's paper seed [x]; other seeds move it. *)
let mix ~seed x = if seed = 0 then x else x + (seed * 1_000_003)

(* The figure harness's per-thread lock-choice generator. *)
let lcg_next s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* The pause outside the critical section: the paper's [work] cycles
   at seed 0, uniform in [work/2, work/2 + work] otherwise. *)
let pauser ~seed ~tid work =
  if seed = 0 || work < 2 then fun () -> work
  else begin
    let rng = Rng.create ~seed:(mix ~seed (tid + 1) lxor 0x5bd1e995) in
    fun () -> (work / 2) + Rng.int rng (work + 1)
  end

let preemption ~seed =
  Fault.preemption ~seed:(mix ~seed 42) ~cycles:(2_000, 20_000) 1e-3

(* ------------------------------------------------------------------ *)
(* Plans: the figure grids *)

let lock_points = function
  | Arch.Opteron -> [ 1; 2; 6; 12; 18; 24; 36; 48 ]
  | Arch.Xeon -> [ 1; 2; 10; 20; 40; 60; 80 ]
  | Arch.Niagara -> [ 1; 2; 8; 16; 32; 48; 64 ]
  | Arch.Tilera -> [ 1; 2; 6; 12; 18; 24; 36 ]
  | Arch.Opteron2 | Arch.Xeon2 -> []

let ssht_points = function
  | Arch.Opteron -> [ 1; 6; 18; 36 ]
  | Arch.Xeon -> [ 1; 10; 18; 36 ]
  | _ -> [ 1; 8; 18; 36 ]

let ssht_configs = [ (512, 12); (512, 48); (12, 12); (12, 48) ]
let platforms = Arch.paper_platform_ids
let algos pid = Simlock.algos_for (Platform.get pid)

(* (pid, threads, kind) triples in plan order. *)
let lock_grid mk =
  List.concat_map
    (fun pid ->
      List.concat_map
        (fun algo -> List.map (fun n -> (pid, n, mk algo)) (lock_points pid))
        (algos pid))
    platforms

let ssht_grid configs =
  let locked =
    List.concat_map
      (fun (n_buckets, capacity) ->
        List.concat_map
          (fun pid ->
            List.concat_map
              (fun algo ->
                List.map
                  (fun n -> (pid, n, Ssht_lock { algo; n_buckets; capacity }))
                  (ssht_points pid))
              (algos pid))
          platforms)
      configs
  in
  let mp =
    List.concat_map
      (fun (n_buckets, capacity) ->
        List.concat_map
          (fun pid ->
            List.map
              (fun n -> (pid, n, Ssht_mp { n_buckets; capacity }))
              (ssht_points pid))
          platforms)
      configs
  in
  locked @ mp

let plan ?window w ~seed =
  let window = match window with Some c -> c | None -> default_window w in
  let lock n_locks faults algo = Lock { algo; n_locks; faults } in
  let grid =
    match w with
    | Ssht -> ssht_grid ssht_configs
    | Observed -> ssht_grid [ (12, 12); (12, 48) ]
    | Sparse_locks -> lock_grid (lock 512 Fault.none)
    | Hot_lock -> lock_grid (lock 1 Fault.none)
    | Preempt -> lock_grid (lock 1 (preemption ~seed))
  in
  Array.of_list
    (List.mapi
       (fun index (pid, threads, kind) ->
         { index; pid; threads; window; seed; kind; observed = w = Observed })
       grid)

(* ------------------------------------------------------------------ *)
(* Outcomes *)

type outcome = {
  ops : int array;  (** completed operations per thread *)
  health : Sim.health;
  final_time : int;
  sim_cycles : int;
  stats : Stats.t;
  mops : float;
  results : int array;  (** per thread: hash of every operation's result *)
  expected : int;
  observed_value : int;
      (** the job's invariant holds iff [observed_value = expected]: on
          lock jobs the protected data words must sum to the operations
          that entered the critical section; on ssht jobs the table size
          must equal the prefill plus inserts minus removes *)
  sink_totals : string;  (** observed jobs: trace and metric totals *)
  export_digest : string;  (** observed jobs: digest of the exported files *)
  (* engine and host counters, never digested *)
  events : int;
  parks : int;
  wakeups : int;
  lines : int;
  prefill_cycles : int;
  acquires : int;  (** lock acquisitions in the measured window *)
  trace_events : int;  (** events emitted into the trace ring *)
}

let hex12 s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let digest o =
  let b = Buffer.create 512 in
  let ints label a =
    Buffer.add_string b label;
    Array.iter (fun x -> Printf.bprintf b " %d" x) a;
    Buffer.add_char b ';'
  in
  let h = o.health in
  ints "ops" o.ops;
  Printf.bprintf b "verdict %s;crashed %s;preempt %d;jitter %d;"
    (Sim.verdict_to_string h.Sim.verdict)
    (String.concat "," (List.map string_of_int h.Sim.crashed))
    h.Sim.preemptions h.Sim.jitter_events;
  Printf.bprintf b "time %d;cycles %d;" o.final_time o.sim_cycles;
  let s = o.stats and c (k : Stats.counter) = (k.Stats.count, k.Stats.cycles) in
  let lc, ly = c s.Stats.loads
  and sc, sy = c s.Stats.stores
  and ac, ay = c s.Stats.atomics in
  Printf.bprintf b "loads %d %d;stores %d %d;atomics %d %d;" lc ly sc sy ac ay;
  Printf.bprintf b "local %d;inval %d;queued %d;link %d;" s.Stats.local_hits
    s.Stats.invalidations s.Stats.queued_cycles s.Stats.link_queued_cycles;
  Printf.bprintf b "mops %h;" o.mops;
  ints "results" o.results;
  Printf.bprintf b "invariant %d %d;%s" o.expected o.observed_value
    o.sink_totals;
  hex12 (Buffer.contents b)

(* Parking-independent sink totals: park and wake events, and the split
   between elided and polled probes, depend on the engine's waiting
   strategy, so only their sums enter the digest. *)
let sink_totals tr ms =
  let t = Trace.totals tr in
  let m k = Metrics.total ms ~kind:k in
  Printf.sprintf
    "trace %d %d %d %d %d %d %d %d %d %d %d;metrics %d %d %d %d %d %d %d %d;"
    (t.Trace.t_emitted - t.Trace.t_parks - t.Trace.t_wakes)
    t.Trace.t_acquires t.Trace.t_releases t.Trace.t_xfers t.Trace.t_xfer_cy
    t.Trace.t_queued_cy
    (t.Trace.t_local + t.Trace.t_elided)
    (t.Trace.t_local_cy + t.Trace.t_elided_cy)
    t.Trace.t_faults t.Trace.t_sends t.Trace.t_recvs (m Metrics.k_dir_busy)
    (m Metrics.k_link_busy) (m Metrics.k_dir_queued) (m Metrics.k_link_queued)
    (m Metrics.k_line_occ) (m Metrics.k_line_sharers) (m Metrics.k_runnable)
    (m Metrics.k_spinning + m Metrics.k_parked)

(* ------------------------------------------------------------------ *)
(* Running one job *)

let fold_result h x = (h * 1_000_003) lxor x

(* What a job's threads leave behind, read once the simulation ends. *)
type body_result = {
  b_ops : int array;
  b_results : int array;
  b_expected : unit -> int;
  b_observed : unit -> int;
  b_prefill : unit -> int;
  b_acquires : unit -> int;
}

let sum = Array.fold_left ( + ) 0

(* Lock_bench.throughput's workload: each thread acquires one of
   [n_locks] locks, reads and writes its data line, releases and pauses
   (section 6.1.2).  Spawned through [Harness.spawn_order] like the
   figure harness. *)
let lock_body sim p job ~algo ~n_locks =
  let mem = Sim.memory sim and threads = job.threads in
  let home = Platform.place p 0 in
  let locks =
    Array.init n_locks (fun _ ->
        Simlock.create ~home_core:home mem p ~n_threads:threads algo)
  in
  let data = Array.init n_locks (fun _ -> Memory.alloc ~home_core:home mem) in
  let ops = Array.make threads 0 and in_cs = Array.make threads 0 in
  let work = Platform.local_work_for p ~threads in
  let barrier = Sim.make_barrier threads in
  Array.iter
    (fun tid ->
      let pause = pauser ~seed:job.seed ~tid work in
      Sim.spawn sim ~core:(Platform.place p tid) (fun () ->
          Sim.await barrier;
          let deadline = Sim.now () + job.window in
          let s = ref (lcg_next (mix ~seed:job.seed (tid + 7))) in
          while Sim.now () < deadline do
            s := lcg_next !s;
            let i = !s mod n_locks in
            locks.(i).Lock_type.acquire ~tid;
            let v = Sim.load data.(i) in
            (* counted before the store, which memory applies at issue:
               a run cut off by the backstop mid-store still balances *)
            in_cs.(tid) <- in_cs.(tid) + 1;
            Sim.store data.(i) (v + 1);
            locks.(i).Lock_type.release ~tid;
            Sim.pause (pause ());
            ops.(tid) <- ops.(tid) + 1
          done))
    (Harness.spawn_order ~threads);
  ( job.window * 4,
    {
      b_ops = ops;
      b_results = in_cs;
      b_expected = (fun () -> sum in_cs);
      b_observed =
        (fun () -> Array.fold_left (fun a d -> a + Memory.peek mem d) 0 data);
      b_prefill = (fun () -> 0);
      b_acquires = (fun () -> sum in_cs);
    } )

(* One ssht operation from the paper's 80/10/10 mix, after [pause]
   cycles of key handling.  Returns the result code folded into the
   thread's result hash: 1 = inserted, 3 = removed. *)
let ssht_op rng key_space ~pause ~get ~put ~remove =
  let k = Rng.int rng key_space in
  Sim.pause pause;
  match Op_mix.sample Op_mix.paper rng with
  | Op_mix.Get -> 4 * (get k + 2)
  | Op_mix.Put -> if put k (k * 2) then 1 else 0
  | Op_mix.Remove -> if remove k then 3 else 2

(* Per-thread bookkeeping of the ssht jobs. *)
let record ~ops ~results ~delta tid r =
  if r = 1 then delta.(tid) <- delta.(tid) + 1;
  if r = 3 then delta.(tid) <- delta.(tid) - 1;
  results.(tid) <- fold_result results.(tid) r;
  ops.(tid) <- ops.(tid) + 1

(* Figure 11's lock-based ssht: thread 0 prefills the table to half
   its capacity, then every thread runs the mix. *)
let ssht_lock_body sim p job ~algo ~n_buckets ~capacity =
  let mem = Sim.memory sim and threads = job.threads in
  let t =
    Ssht_sim.create ~lock_algo:algo ~home_core:(Platform.place p 0) mem p
      ~n_threads:threads ~n_buckets ~capacity
  in
  let key_space = n_buckets * capacity in
  let work = Platform.local_work_for p ~threads in
  let barrier = Sim.make_barrier threads in
  let ops = Array.make threads 0 and results = Array.make threads 0 in
  let delta = Array.make threads 0 in
  let prefilled = ref 0 and prefill_end = ref 0 in
  for tid = 0 to threads - 1 do
    let pause = pauser ~seed:job.seed ~tid work in
    Sim.spawn sim ~core:(Platform.place p tid) (fun () ->
        if tid = 0 then begin
          Ssht_sim.prefill t ~tid ~key_space;
          prefill_end := Sim.now ();
          prefilled := Ssht_sim.debug_size mem t
        end;
        Sim.await barrier;
        let rng = Rng.create ~seed:(mix ~seed:job.seed (tid + 1)) in
        let get k = Ssht_sim.get_or t ~tid k ~default:(-1)
        and put k v = Ssht_sim.put t ~tid k v
        and remove k = Ssht_sim.remove t ~tid k in
        let deadline = Sim.now () + job.window in
        while Sim.now () < deadline do
          ssht_op rng key_space ~pause:(pause ()) ~get ~put ~remove
          |> record ~ops ~results ~delta tid
        done)
  done;
  (* the backstop leaves room for the prefill before the barrier *)
  ( (job.window * 12) + 80_000_000,
    {
      b_ops = ops;
      b_results = results;
      b_expected = (fun () -> !prefilled + sum delta);
      b_observed = (fun () -> Ssht_sim.debug_size mem t);
      b_prefill = (fun () -> !prefill_end);
      b_acquires = (fun () -> sum ops);
    } )

(* Figure 11's message-passing ssht: one server per three threads,
   prefilled directly into the server partitions. *)
let ssht_mp_body sim p job ~n_buckets ~capacity =
  let mem = Sim.memory sim and threads = job.threads in
  let n_servers = max 1 (threads / 3) in
  let n_clients = max 1 (threads - n_servers) in
  let server_cores = Array.init n_servers (fun i -> Platform.place p i) in
  let client_cores =
    Array.init n_clients (fun i -> Platform.place p (n_servers + i))
  in
  let t =
    Ssht_mp.create mem p ~server_cores ~client_cores ~touch_lines:3
      ~server_work:(Platform.local_work p)
  in
  let key_space = n_buckets * capacity in
  for k = 0 to (key_space / 2) - 1 do
    let s = Ssht_mp.server_of t k in
    Hashtbl.replace t.Ssht_mp.servers.(s).Ssht_mp.table k (k * 2)
  done;
  for i = 0 to n_servers - 1 do
    Sim.spawn sim ~core:server_cores.(i) (fun () -> Ssht_mp.run_server t i)
  done;
  let ops = Array.make n_clients 0 and results = Array.make n_clients 0 in
  let delta = Array.make n_clients 0 in
  let barrier = Sim.make_barrier n_clients in
  for c = 0 to n_clients - 1 do
    let pause = pauser ~seed:job.seed ~tid:c (Platform.local_work p) in
    Sim.spawn sim ~core:client_cores.(c) (fun () ->
        Sim.await barrier;
        let rng = Rng.create ~seed:(mix ~seed:job.seed (c + 1)) in
        let get k =
          match Ssht_mp.get t ~client:c k with Some v -> v | None -> -1
        and put k v = Ssht_mp.put t ~client:c k v
        and remove k = Ssht_mp.remove t ~client:c k in
        let deadline = Sim.now () + job.window in
        while Sim.now () < deadline do
          ssht_op rng key_space ~pause:(pause ()) ~get ~put ~remove
          |> record ~ops ~results ~delta c
        done;
        Ssht_mp.stop t ~client:c)
  done;
  let size () =
    Array.fold_left
      (fun a s -> a + Hashtbl.length s.Ssht_mp.table)
      0 t.Ssht_mp.servers
  in
  ( job.window * 12,
    {
      b_ops = ops;
      b_results = results;
      b_expected = (fun () -> (key_space / 2) + sum delta);
      b_observed = size;
      b_prefill = (fun () -> 0);
      b_acquires = (fun () -> 0);
    } )

(* Optional host-time spans around the library calls. *)
let span_open spans ~parent name id =
  match spans with
  | None -> -1
  | Some t -> Spans.start t ~parent ~name ~id

let span_close spans h = match spans with None -> () | Some t -> Spans.stop t h
let export_buf = Buffer.create 65536

(* Export one observed job with the [--trace] and [--metrics] exporters
   and digest the bytes they write. *)
let export job tr ms =
  let label = Printf.sprintf "observed/%d" job.index in
  Buffer.clear export_buf;
  Chrome.export_buffer ~metrics:[ (label, ms) ] export_buf [ (label, tr) ];
  Metrics.dump_json export_buf [ (label, ms) ];
  hex12 (Buffer.contents export_buf)

(* Run [job] to completion.  [spans] records the job's host-time spans:
   [job], with children [setup] (Sim.create, memory and lock or table
   construction, thread spawns), [run] (Sim.run_health), [dispose]
   (Memory.dispose) and, on observed jobs, [export]. *)
let run ?spans job =
  let minor0 = Gc.minor_words () in
  let root = span_open spans ~parent:(-1) "job" job.index in
  let p = Platform.get job.pid in
  let sinks =
    if job.observed then Some (Trace.start (), Metrics.start ()) else None
  in
  let simulate () =
    let h = span_open spans ~parent:root "setup" job.index in
    let faults =
      match job.kind with Lock { faults; _ } -> faults | _ -> Fault.none
    in
    let sim = Sim.create ~faults p in
    let mem = Sim.memory sim in
    let until, body =
      match job.kind with
      | Lock { algo; n_locks; _ } -> lock_body sim p job ~algo ~n_locks
      | Ssht_lock { algo; n_buckets; capacity } ->
          ssht_lock_body sim p job ~algo ~n_buckets ~capacity
      | Ssht_mp { n_buckets; capacity } ->
          ssht_mp_body sim p job ~n_buckets ~capacity
    in
    span_close spans h;
    let h = span_open spans ~parent:root "run" job.index in
    let final_time, health = Sim.run_health sim ~until in
    span_close spans h;
    let perf = Sim.perf sim in
    let o =
      {
        ops = body.b_ops;
        health;
        final_time;
        sim_cycles = perf.Sim.sim_cycles;
        stats = Stats.copy (Memory.stats mem);
        mops = Platform.mops p ~ops:(sum body.b_ops) ~cycles:job.window;
        results = body.b_results;
        expected = body.b_expected ();
        observed_value = body.b_observed ();
        sink_totals = "";
        export_digest = "";
        events = perf.Sim.events;
        parks = perf.Sim.parks;
        wakeups = perf.Sim.wakeups;
        lines = Memory.n_lines mem;
        prefill_cycles = body.b_prefill ();
        acquires = body.b_acquires ();
        trace_events = 0;
      }
    in
    let h = span_open spans ~parent:root "dispose" job.index in
    Memory.dispose mem;
    span_close spans h;
    o
  in
  let o =
    match sinks with
    | None -> simulate ()
    | Some (tr, ms) ->
        let o =
          Fun.protect simulate ~finally:(fun () ->
              ignore (Trace.stop ());
              ignore (Metrics.stop ()))
        in
        let h = span_open spans ~parent:root "export" job.index in
        let export_digest = export job tr ms in
        span_close spans h;
        {
          o with
          sink_totals = sink_totals tr ms;
          export_digest;
          trace_events = (Trace.totals tr).Trace.t_emitted;
        }
  in
  (match spans with
  | None -> ()
  | Some t ->
      let s = o.stats in
      Spans.stop t root;
      Spans.set_args t root
        [
          ("platform", Arch.platform_name job.pid);
          ("lock", kind_label job.kind);
          ("threads", string_of_int job.threads);
          ("events", string_of_int o.events);
          ("accesses", string_of_int (Stats.total_ops s - s.Stats.elided_probes));
          ("minor_words", Printf.sprintf "%.0f" (Gc.minor_words () -. minor0));
        ]);
  o
