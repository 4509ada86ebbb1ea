(* The domain pool and the parallel bench harness built on it:

   - Pool.run returns results in submission order whatever the domain
     count, propagates the lowest-indexed failure, and captures per-job
     engine-counter deltas;
   - the plan/render sections print byte-identical output with 1 and 4
     domains, with identical aggregated counters (the --jobs guarantee);
   - two full simulations running concurrently in two domains (one with
     fault injection) each reproduce their serial result — the engine
     keeps no cross-simulation mutable state. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_bench

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------- Pool basics ---------------------------- *)

let squares n = Array.init n (fun i () -> i * i)

let test_order_inline () =
  let results = Pool.run ~jobs:1 (squares 10) in
  Array.iteri
    (fun i (v, _) -> check_int (Printf.sprintf "slot %d" i) (i * i) v)
    results

let test_order_parallel () =
  let results = Pool.run ~jobs:4 (squares 100) in
  check_int "all jobs ran" 100 (Array.length results);
  Array.iteri
    (fun i (v, _) -> check_int (Printf.sprintf "slot %d" i) (i * i) v)
    results

exception Boom of int

let test_exception_lowest_index () =
  (* A single failing job re-raises its original exception unchanged. *)
  let one =
    Array.init 8 (fun i () -> if i = 3 then raise (Boom i) else i)
  in
  let got =
    try
      ignore (Pool.run ~jobs:4 one);
      None
    with Boom i -> Some i
  in
  check_bool "single failure re-raised as-is" true (got = Some 3)

let test_exception_aggregation () =
  (* Several failing jobs are all collected: [Job_failures] carries
     every (index, exn) pair, lowest index first. *)
  let thunks =
    Array.init 8 (fun i () ->
        if i = 3 || i = 5 || i = 6 then raise (Boom i) else i)
  in
  let got =
    try
      ignore (Pool.run ~jobs:4 thunks);
      None
    with Pool.Job_failures fails -> Some fails
  in
  match got with
  | None -> Alcotest.fail "expected Job_failures"
  | Some fails ->
      Alcotest.(check (list int))
        "all failing jobs reported, lowest first" [ 3; 5; 6 ]
        (List.map fst fails);
      check_bool "original exceptions preserved" true
        (List.for_all (fun (i, e) -> e = Boom i) fails);
      let msg = Printexc.to_string (Pool.Job_failures fails) in
      let contains needle =
        let nl = String.length needle and ml = String.length msg in
        let rec at i =
          i + nl <= ml && (String.sub msg i nl = needle || at (i + 1))
        in
        at 0
      in
      check_bool "printer aggregates every job's message" true
        (List.for_all
           (fun i -> contains (Printf.sprintf "job %d" i))
           [ 3; 5; 6 ])

(* An observed job that raises uninstalls its sinks: the next job on
   the same domain, and the caller's domain after the run, find none,
   and the job's exception reaches [Pool.run]'s caller. *)
let test_observed_failure_leaves_no_sink () =
  let installed () =
    ( Ssync_trace.Trace.current () <> None,
      Ssync_metrics.Metrics.current () <> None )
  in
  let next = ref (true, true) in
  let got =
    try
      ignore
        (Pool.run ~jobs:1
           [|
             (fun () ->
               ignore
                 (Section.observe ~trace:true ~metrics:true
                    (fun () -> raise (Boom 0))
                    ()));
             (fun () -> next := installed ());
           |]);
      None
    with Boom i -> Some i
  in
  check_bool "the job's exception reaches the caller" true (got = Some 0);
  check_bool "no sink in the next job" true (!next = (false, false));
  check_bool "no sink after the run" true (installed () = (false, false))

let test_invalid_jobs () =
  check_bool "jobs = 0 rejected" true
    (try
       ignore (Pool.run ~jobs:0 [| (fun () -> ()) |]);
       false
     with Invalid_argument _ -> true)

(* A small but real simulation, for stats capture and the concurrency
   smoke test.  [tid]-dependent pauses keep the schedule nontrivial. *)
let sim_workload ?faults () =
  Harness.run ?faults Platform.xeon ~threads:6 ~duration:30_000
    ~setup:(fun mem -> Memory.alloc mem)
    ~body:(fun a _mem ~tid ~deadline ->
      let n = ref 0 in
      while Sim.now () < deadline do
        ignore (Sim.fai a);
        Sim.pause (60 + (tid * 7));
        incr n
      done;
      !n)

let fingerprint (r : Harness.result) =
  ( Array.to_list r.Harness.ops,
    Array.to_list r.Harness.completed,
    r.Harness.total_ops,
    r.Harness.health )

let test_job_stats_captured () =
  let results =
    Pool.run ~jobs:2 [| (fun () -> sim_workload ()); (fun () -> sim_workload ()) |]
  in
  Array.iter
    (fun ((_ : Harness.result), (s : Pool.stats)) ->
      check_bool "job ran events" true (s.Pool.perf.Sim.events > 0);
      check_bool "job advanced virtual time" true
        (s.Pool.perf.Sim.sim_cycles > 0);
      check_bool "wall time non-negative" true (s.Pool.wall_ns >= 0))
    results;
  let total = Pool.total_stats results in
  check_int "totals sum the per-job events"
    (Array.fold_left (fun acc (_, s) -> acc + s.Pool.perf.Sim.events) 0 results)
    total.Pool.perf.Sim.events

(* ----------------------- perf arithmetic --------------------------- *)

let perf_of (a, q, b, c, d, e, f) =
  {
    Sim.events = a;
    queued = q;
    parks = b;
    wakeups = c;
    elided_probes = d;
    sim_cycles = e;
    link_queued_cycles = f;
  }

let test_perf_arithmetic () =
  let a = perf_of (10, 6, 2, 3, 40, 5_000, 77)
  and b = perf_of (7, 4, 1, 1, 13, 900, 11) in
  check_bool "zero is add-neutral" true (Sim.perf_add a Sim.perf_zero = a);
  check_bool "diff of self is zero" true (Sim.perf_diff a a = Sim.perf_zero);
  check_bool "add/diff round-trip" true
    (Sim.perf_diff (Sim.perf_add a b) b = a);
  check_bool "add commutes" true (Sim.perf_add a b = Sim.perf_add b a)

(* A job that runs one simulation is booked exactly that run's own
   [perf] — the invariant the pool's per-job capture relies on. *)
let test_cumulative_matches_per_run () =
  match Pool.run ~jobs:1 [| (fun () -> sim_workload ()) |] with
  | [| (r, s) |] ->
      check_bool "the job's counters equal the run's perf" true
        (r.Harness.perf = s.Pool.perf)
  | _ -> assert false

(* The pool's summed per-job counters are independent of the domain
   count: the --jobs invariant at the stats level. *)
let test_total_stats_jobs_invariant () =
  let thunks () =
    Array.init 4 (fun i () ->
        if i mod 2 = 0 then ignore (sim_workload ())
        else
          ignore
            (sim_workload
               ~faults:(Fault.preemption ~seed:7 ~cycles:(1_000, 5_000) 0.01)
               ()))
  in
  let p1 = (Pool.total_stats (Pool.run ~jobs:1 (thunks ()))).Pool.perf in
  let p4 = (Pool.total_stats (Pool.run ~jobs:4 (thunks ()))).Pool.perf in
  check_int "events" p1.Sim.events p4.Sim.events;
  check_int "parks" p1.Sim.parks p4.Sim.parks;
  check_int "wakeups" p1.Sim.wakeups p4.Sim.wakeups;
  check_int "elided probes" p1.Sim.elided_probes p4.Sim.elided_probes;
  check_int "sim cycles" p1.Sim.sim_cycles p4.Sim.sim_cycles

(* -------------------- concurrent-domain smoke ---------------------- *)

let test_two_domains_match_serial () =
  let faults = Fault.preemption ~seed:42 ~cycles:(2_000, 20_000) 0.02 in
  let serial_plain = fingerprint (sim_workload ()) in
  let serial_faulty = fingerprint (sim_workload ~faults ()) in
  let results =
    Pool.run ~jobs:2
      [|
        (fun () -> fingerprint (sim_workload ()));
        (fun () -> fingerprint (sim_workload ~faults ()));
      |]
  in
  let plain, _ = results.(0) and faulty, _ = results.(1) in
  check_bool "fault-free sim matches its serial run" true (plain = serial_plain);
  check_bool "fault-injected sim matches its serial run" true
    (faulty = serial_faulty);
  check_bool "the two runs differ from each other" true (plain <> faulty)

(* ------------------- byte-identical rendering ---------------------- *)

let capture_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "ssync_determinism" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (match f () with
  | () -> restore ()
  | exception e ->
      restore ();
      Sys.remove tmp;
      raise e);
  let ic = open_in_bin tmp in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  s

(* The determinism suite the ISSUE names: fig3, fig9 and the ablations,
   planned and fanned through the pool, then rendered.  Returns the
   rendered bytes and the aggregated engine counters. *)
let run_suite ~jobs =
  let sections =
    [
      Figures.fig3 ~duration:120_000 ();
      Figures.fig9 ();
      Ablations.run ~quick:true ();
    ]
  in
  let all_jobs =
    Array.concat (List.map (fun s -> s.Section.jobs) sections)
  in
  let results = Pool.run ~jobs all_jobs in
  let out =
    capture_stdout (fun () ->
        List.iter (fun s -> s.Section.render ()) sections)
  in
  (out, (Pool.total_stats results).Pool.perf)

let test_byte_identical_output () =
  let out1, perf1 = run_suite ~jobs:1 in
  let out4, perf4 = run_suite ~jobs:4 in
  check_bool "serial run rendered something" true (String.length out1 > 500);
  check_string "stdout byte-identical with 1 and 4 domains" out1 out4;
  (* identical aggregated counters *)
  check_int "events" perf1.Sim.events perf4.Sim.events;
  check_int "parks" perf1.Sim.parks perf4.Sim.parks;
  check_int "wakeups" perf1.Sim.wakeups perf4.Sim.wakeups;
  check_int "elided probes" perf1.Sim.elided_probes perf4.Sim.elided_probes;
  check_int "sim cycles" perf1.Sim.sim_cycles perf4.Sim.sim_cycles

(* A job's counters sum the [Harness.simulate] calls it made, an
   exactly parked one (under preemption) included; a bare
   [Sim.create]/[Sim.run] books nothing. *)
let test_job_books_its_simulations () =
  let bare = ref Sim.perf_zero in
  let job () =
    let a = sim_workload () in
    let b =
      sim_workload ~faults:(Fault.preemption ~seed:3 ~cycles:(500, 2_000) 1e-3) ()
    in
    let sim = Sim.create Platform.xeon in
    Sim.spawn sim ~core:0 (fun () -> Sim.pause 100);
    ignore (Sim.run sim);
    bare := Sim.perf sim;
    Memory.dispose (Sim.memory sim);
    Sim.perf_add a.Harness.perf b.Harness.perf
  in
  match Pool.run ~jobs:1 [| job |] with
  | [| (sum, s) |] ->
      check_bool "the bare run counted its events" true
        (!bare.Sim.events > 0);
      check_bool "the job's counters are the two harness runs'" true
        (s.Pool.perf = sum)
  | _ -> assert false

(* A build or a run that raises books nothing, though the run had
   advanced its simulation's counters. *)
let test_raising_simulation_books_nothing () =
  let ran = ref None in
  let job () =
    (try
       Harness.simulate Platform.xeon (fun sim _ ->
           Sim.spawn sim ~core:0 (fun () -> Sim.pause 100);
           raise (Boom 0))
     with Boom _ -> ());
    try
      Harness.simulate Platform.xeon (fun sim _ ->
          ran := Some sim;
          Sim.spawn sim ~core:0 (fun () ->
              Sim.pause 100;
              raise (Boom 1));
          fun _ -> ())
    with Boom _ -> ()
  in
  match Pool.run ~jobs:1 [| job |] with
  | [| ((), s) |] ->
      check_bool "the raising run counted its events" true
        (match !ran with
        | Some sim -> (Sim.perf sim).Sim.events > 0
        | None -> false);
      check_bool "the job booked nothing" true (s.Pool.perf = Sim.perf_zero)
  | _ -> assert false

let suite =
  [
    Alcotest.test_case "pool: inline order" `Quick test_order_inline;
    Alcotest.test_case "pool: parallel order" `Quick test_order_parallel;
    Alcotest.test_case "pool: lowest-index exception" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "pool: multi-failure aggregation" `Quick
      test_exception_aggregation;
    Alcotest.test_case "pool: invalid jobs" `Quick test_invalid_jobs;
    Alcotest.test_case "pool: per-job stats" `Quick test_job_stats_captured;
    Alcotest.test_case "perf arithmetic round-trips" `Quick
      test_perf_arithmetic;
    Alcotest.test_case "cumulative perf matches per-run perf" `Quick
      test_cumulative_matches_per_run;
    Alcotest.test_case "total stats identical across domain counts" `Quick
      test_total_stats_jobs_invariant;
    Alcotest.test_case "two domains match serial" `Quick
      test_two_domains_match_serial;
    Alcotest.test_case "bench output byte-identical across domains" `Slow
      test_byte_identical_output;
    Alcotest.test_case "pool: a failed observed job leaves no sink" `Quick
      test_observed_failure_leaves_no_sink;
    Alcotest.test_case "pool: a job books its harness simulations" `Quick
      test_job_books_its_simulations;
    Alcotest.test_case "pool: a raising build or run books nothing" `Quick
      test_raising_simulation_books_nothing;
  ]
