(* Tests of the benchmark itself: its seed-0 plans reproduce the figure
   harness's engine counters, its statistics refuse to guess, its pace
   rescaling follows the kernel, its jobs are repeatable, and its failure
   accounting counts exactly. *)

open Ssync_perf

let sum f p = List.fold_left (fun acc (_, o) -> acc + f o) 0 (Run.outcomes p)

(* At seed 0 and fig5/fig7's quick windows, the hot_lock and
   sparse_locks plans are the quick fig5 and fig7 sections, whose
   counters BENCH_PERF.json records. *)
let test_anchors () =
  let counters w =
    let p = Run.pass (Plan.plan ~window:80_000 w ~seed:0) in
    ( sum (fun o -> o.Plan.events) p,
      sum (fun o -> o.Plan.sim_cycles) p,
      sum (fun o -> o.Plan.stats.Ssync_coherence.Stats.link_queued_cycles) p )
  in
  let events, cycles, _ = counters Plan.Hot_lock in
  Alcotest.(check (pair int int)) "fig5 events, sim_cycles" (639_317, 26_207_201)
    (events, cycles);
  let events, cycles, link = counters Plan.Sparse_locks in
  Alcotest.(check (triple int int int))
    "fig7 events, sim_cycles, link_queued"
    (2_559_776, 18_893_903, 40_058_653)
    (events, cycles, link)

let test_percentile () =
  let samples n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 0.))) "p90 of 100: 10 beyond" (Some 90.)
    (Stat.tail_percentile 0.9 (List.rev (samples 100)));
  Alcotest.(check (option (float 0.))) "p90 of 99: 9 beyond" None
    (Stat.tail_percentile 0.9 (samples 99));
  Alcotest.(check (option (float 0.))) "p50 of 20" (Some 10.)
    (Stat.tail_percentile 0.5 (samples 20));
  Alcotest.(check (float 0.)) "median of 4" 2.5 (Stat.median (samples 4))

(* A job timed while the pace kernel ran twice as slow counts half. *)
let test_rescale () =
  let n = Pace.nominal_s in
  let paces = Array.init 40 (fun i -> if i < 20 then n else 2. *. n) in
  let r = Pace.rescale (Array.make 40 1.) paces in
  Alcotest.(check (float 1e-12)) "nominal pace" 1. r.(0);
  Alcotest.(check (float 1e-12)) "half pace" 0.5 r.(39)

(* Memory.dispose recycles a job's arrays into the next job's memory; a
   rerun after an unrelated job must see none of the first run's state. *)
let test_repeatable () =
  let job w i = (Plan.plan w ~seed:3).(i) in
  let a = job Plan.Sparse_locks 20 and b = job Plan.Ssht 100 in
  let obs = job Plan.Observed 5 in
  let first = Plan.run a and first_obs = Plan.run obs in
  ignore (Plan.run b);
  let again = Plan.run a and again_obs = Plan.run obs in
  Alcotest.(check string) "lock job digest" (Plan.digest first) (Plan.digest again);
  Alcotest.(check string) "observed job digest" (Plan.digest first_obs)
    (Plan.digest again_obs);
  Alcotest.(check string) "observed export digest" first_obs.Plan.export_digest
    again_obs.Plan.export_digest

let test_fail_rate () =
  let plan = Array.sub (Plan.plan ~window:20_000 Plan.Hot_lock ~seed:1) 0 12 in
  let p = Run.pass plan in
  let n = float_of_int (Array.length plan) in
  let golden =
    Array.map
      (fun r ->
        match r.Run.outcome with
        | Ok o -> Run.golden_line o
        | Error e -> Alcotest.fail e)
      p.Run.runs
  in
  let rate ?(golden = golden) p = Run.fail_rate (Run.judge ~golden p) in
  Alcotest.(check (float 0.)) "clean" 0. (rate p);
  let planted = Array.copy golden in
  planted.(4) <- "000000000000";
  Alcotest.(check (float 1e-12)) "digest mismatch" (1. /. n) (rate ~golden:planted p);
  let broken =
    {
      p with
      Run.runs =
        Array.mapi
          (fun i r ->
            match r.Run.outcome with
            | Ok o when i = 7 ->
                let o = { o with Plan.observed_value = o.Plan.observed_value + 1 } in
                { r with Run.outcome = Ok o }
            | _ -> r)
          p.Run.runs;
    }
  in
  Alcotest.(check (float 1e-12)) "invariant violation" (1. /. n) (rate broken);
  Alcotest.(check (float 1e-12)) "both" (2. /. n) (rate ~golden:planted broken)

let () =
  Alcotest.run "ssync_perf"
    [
      ( "perf",
        [
          Alcotest.test_case "seed-0 anchors: fig5 and fig7" `Quick test_anchors;
          Alcotest.test_case "percentile needs 10 beyond" `Quick test_percentile;
          Alcotest.test_case "pace rescaling" `Quick test_rescale;
          Alcotest.test_case "job rerun: same digest" `Quick test_repeatable;
          Alcotest.test_case "planted failures: 1/n each" `Quick test_fail_rate;
        ] );
    ]
