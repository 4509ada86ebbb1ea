(* The simulator's benchmark.  One invocation runs one workload in one
   process on one domain and prints every metric as "name value unit",
   then one JSON line.  See perf/README.md for the workloads, the
   metrics and how to compare two commits.

     main.exe WORKLOAD [--seed N] [--seconds S] [--trace 0|1]
     main.exe WORKLOAD --seed N --spans FILE    traced run, spans to FILE
     main.exe WORKLOAD --seed N --record        rewrite the golden digests

   Exit status: 0 when every job passed, 1 when one failed, 2 on a
   usage error. *)

open Ssync_perf
module Stats = Ssync_coherence.Stats

let usage () =
  prerr_endline
    "usage: main.exe WORKLOAD [--seed N] [--seconds S] [--trace 0|1] \
     [--spans FILE] [--record]\n\
     workloads: ssht sparse_locks hot_lock preempt observed";
  exit 2

type args = {
  workload : Plan.workload;
  seed : int;
  seconds : float;
  traced : bool;
  spans_file : string option;
  record : bool;
  setup_only : bool;
}

let parse argv =
  let nat s =
    match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage ()
  in
  let rec go a w = function
    | [] -> (
        match w with Some workload -> { a with workload } | None -> usage ())
    | "--workload" :: n :: rest -> go a (Plan.of_string n) rest
    | "--seed" :: n :: rest -> go { a with seed = nat n } w rest
    | "--seconds" :: n :: rest ->
        go { a with seconds = float_of_int (nat n) } w rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        go { a with traced = t = "1" } w rest
    | "--spans" :: f :: rest ->
        go { a with traced = true; spans_file = Some f } w rest
    | "--record" :: rest -> go { a with record = true } w rest
    | "--setup-only" :: rest -> go { a with setup_only = true } w rest
    | n :: rest when w = None && Plan.of_string n <> None ->
        go a (Plan.of_string n) rest
    | _ -> usage ()
  in
  go
    {
      workload = Plan.Ssht;
      seed = 0;
      seconds = 0.;
      traced = false;
      spans_file = None;
      record = false;
      setup_only = false;
    }
    None
    (List.tl (Array.to_list argv))

(* Everything a run does before its first job. *)
let setup a =
  (Plan.plan a.workload ~seed:a.seed, Run.load_golden a.workload ~seed:a.seed)

(* setup_s: the median, over [setup_probes] fresh processes, of the time
   from process start to where the first job would start, at the nominal
   host pace. *)
let setup_probes = 21

let setup_s a =
  let argv =
    [|
      Sys.executable_name; "--setup-only"; Plan.name a.workload; "--seed";
      string_of_int a.seed;
    |]
  in
  let probe _ =
    let t0 = Unix.gettimeofday () in
    let pid =
      Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> (Unix.gettimeofday () -. t0, Pace.kernel ())
    | _ ->
        prerr_endline "setup probe failed";
        exit 1
  in
  let walls, paces = Array.split (Array.init setup_probes probe) in
  Stat.median (Array.to_list (Pace.rescale walls paces))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* Output *)

let metric (name, value, unit) = Printf.printf "%s %.12g %s\n" name value unit

let json (v : Run.verdict) metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (v.Run.failures = []) v.Run.attempted
    (List.length v.Run.failures)
    (String.concat ", " m)

let report_failures (v : Run.verdict) =
  List.iter
    (fun (i, what) -> Printf.printf "FAIL job %d: %s\n" i what)
    v.Run.failures

let sum_outcomes f p =
  List.fold_left (fun acc (j, o) -> acc + f j o) 0 (Run.outcomes p)

(* Seed 0 of ssht is the figure harness's quick fig11 section, whose
   engine counters BENCH_PERF.json records. *)
let anchor a p =
  if a.workload = Plan.Ssht && a.seed = 0 then begin
    let events = sum_outcomes (fun _ o -> o.Plan.events) p in
    let cycles = sum_outcomes (fun _ o -> o.Plan.sim_cycles) p in
    let ok = events = 44_922_612 && cycles = 1_078_607_316 in
    Printf.printf
      "anchor fig11 (BENCH_PERF.json events 44922612, sim_cycles 1078607316): \
       events %d, sim_cycles %d %s\n"
      events cycles
      (if ok then "OK" else "DIFFERS")
  end

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics *)

let measure a plan golden =
  let setup = setup_s a in
  let t0 = Unix.gettimeofday () in
  (* closed loop: whole passes back to back while the next one is
     expected to fit in the budget; always at least one *)
  let rec more acc last =
    if Unix.gettimeofday () -. t0 +. last.Run.pass_s > a.seconds then
      List.rev acc
    else begin
      let p = Run.pass plan in
      more (p :: acc) p
    end
  in
  let first = Run.pass plan in
  (* the high-water mark of one pass: a fixed amount of work, however
     many passes the budget then fits *)
  let rss = peak_rss_mb () in
  let ps = more [ first ] first in
  anchor a first;
  let v = Run.merge (List.map (Run.judge ?golden) ps) in
  report_failures v;
  Printf.printf "workload %s, seed %d: %d jobs x %d passes, %s\n"
    (Plan.name a.workload) a.seed (Array.length plan) (List.length ps)
    (match golden with
    | Some _ ->
        "digests checked against " ^ Run.golden_path a.workload ~seed:a.seed
    | None -> "no golden digests for this seed (invariants checked only)");
  (* host times at the nominal pace; the raw ones are printed alongside *)
  let rescaled = List.map (fun p -> Array.to_list (Run.rescaled p)) ps in
  let walls = List.concat rescaled in
  let p90 =
    match Stat.tail_percentile 0.9 walls with
    | Some v -> v
    | None -> failwith "fewer than 100 job samples"
  in
  let paces =
    List.concat_map
      (fun p -> Array.to_list (Array.map (fun r -> r.Run.pace_s) p.Run.runs))
      ps
  in
  metric ("host_raw_s", Stat.median (List.map (fun p -> p.Run.pass_s) ps), "s");
  metric ("host_pace", Stat.median paces /. Pace.nominal_s, "x");
  let ms =
    [
      ("setup_s", setup, "s");
      ("host_s", Stat.median (List.map (List.fold_left ( +. ) 0.) rescaled), "s");
      ("job_p50_ms", 1000. *. Stat.median walls, "ms");
      ("job_p90_ms", 1000. *. p90, "ms");
      ("peak_rss_mb", rss, "MB");
    ]
  in
  List.iter metric ms;
  metric ("fail_rate", Run.fail_rate v, "ratio");
  json v ms;
  List.length v.Run.failures

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics *)

let ratio a b = if b = 0. then 0. else a /. b

(* Sinks must not move a single simulated number: the sinks-off rerun
   of an observed job must reproduce its digest without sink totals. *)
let sinks_neutral on off =
  let fails = ref [] in
  Array.iteri
    (fun i (r : Run.job_run) ->
      match (r.Run.outcome, off.Run.runs.(i).Run.outcome) with
      | Ok o, Ok o'
        when Plan.digest { o with Plan.sink_totals = "" } = Plan.digest o' ->
          ()
      | _ -> fails := (i, "sinks changed the simulated results") :: !fails)
    on.Run.runs;
  { Run.attempted = Array.length off.Run.runs; failures = List.rev !fails }

(* The layer table and the per-layer metrics of a traced pass. *)
let layers (u : Units.t) ~spans ~traced ~gc0 ~gc1 ~overhead_x =
  let sum f = float_of_int (sum_outcomes (fun _ o -> f o) traced) in
  let stat f = sum (fun o -> f o.Plan.stats) in
  let real (s : Stats.t) = Stats.total_ops s - s.Stats.elided_probes in
  let hits (s : Stats.t) = max 0 (s.Stats.local_hits - s.Stats.elided_probes) in
  let events = sum (fun o -> o.Plan.events) in
  let parks = sum (fun o -> o.Plan.parks) in
  let elided = stat (fun s -> s.Stats.elided_probes) and accesses = stat real in
  let cycles = sum (fun o -> o.Plan.sim_cycles) in
  let run_s = Spans.self_total spans "run" in
  let event_ns = u.Units.event_queue_ns +. u.Units.resume_ns in
  let attr_engine = events *. event_ns /. 1e9 in
  let attr_coherence =
    List.fold_left
      (fun acc ((j : Plan.job), (o : Plan.outcome)) ->
        let h = hits o.Plan.stats in
        acc
        +. (float_of_int h *. List.assoc j.Plan.pid u.Units.hit_ns)
        +. float_of_int (real o.Plan.stats - h)
           *. List.assoc j.Plan.pid u.Units.xfer_ns)
      0. (Run.outcomes traced)
    /. 1e9
  in
  let attr_park = parks *. u.Units.park_wake_ns /. 1e9 in
  let residual = run_s -. attr_engine -. attr_coherence -. attr_park in
  Printf.printf "\n%-10s %14s %10s %12s %8s\n" "layer" "count" "unit ns"
    "seconds" "of run";
  let row name count unit s =
    Printf.printf "%-10s %14s %10s %12.4f %7.1f%%\n" name count unit s
      (100. *. ratio s run_s)
  in
  row "engine" (Printf.sprintf "%.0f" events) (Printf.sprintf "%.1f" event_ns)
    attr_engine;
  row "coherence" (Printf.sprintf "%.0f" accesses) "per pid" attr_coherence;
  row "park" (Printf.sprintf "%.0f" parks)
    (Printf.sprintf "%.1f" u.Units.park_wake_ns)
    attr_park;
  row "residual" "" "" residual;
  row "run self" "" "" run_s;
  Printf.printf "\nunit ns by platform (hit / transfer):";
  List.iter
    (fun (pid, h) ->
      Printf.printf "  %s %.1f / %.1f"
        (Ssync_platform.Arch.platform_name pid)
        h
        (List.assoc pid u.Units.xfer_ns))
    u.Units.hit_ns;
  Printf.printf
    "\nspan self time: setup %.4f s, run %.4f s, dispose %.4f s, export %.4f \
     s, job %.4f s\n"
    (Spans.self_total spans "setup")
    run_s
    (Spans.self_total spans "dispose")
    (Spans.self_total spans "export")
    (Spans.self_total spans "job");
  let words = float_of_int (Sys.word_size / 8) in
  [
    ("engine.events", events, "count");
    ("engine.ns_per_event", ratio (run_s *. 1e9) events, "ns");
    ("engine.sim_mcps", ratio cycles (run_s *. 1e6), "Mcy/s");
    ("engine.parks", parks, "count");
    ("engine.wakeups", sum (fun o -> o.Plan.wakeups), "count");
    ("engine.elision_ratio", ratio elided (elided +. events), "ratio");
    ("coherence.accesses", accesses, "count");
    ("coherence.local_hit_ratio", ratio (stat hits) accesses, "ratio");
    ("coherence.lines", sum (fun o -> o.Plan.lines), "count");
    ("coherence.setup_s", Spans.self_total spans "setup", "s");
    ("coherence.dispose_s", Spans.self_total spans "dispose", "s");
    ( "platform.link_queued_per_kcycle",
      ratio (1000. *. stat (fun s -> s.Stats.link_queued_cycles)) cycles,
      "cy/kcy" );
    ("simlocks.acquires", sum (fun o -> o.Plan.acquires), "count");
    ("unit.lock_pair_ns", u.Units.lock_pair_ns, "ns");
    ( "ssht.prefill_cycle_share",
      ratio (sum (fun o -> o.Plan.prefill_cycles)) cycles,
      "ratio" );
    ("trace.events_emitted", sum (fun o -> o.Plan.trace_events), "count");
    ("obs.overhead_x", overhead_x, "x");
    ( "gc.minor_words_per_event",
      ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) events,
      "words" );
    ( "gc.promoted_words",
      gc1.Gc.promoted_words -. gc0.Gc.promoted_words,
      "words" );
    ( "gc.major_collections",
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
      "count" );
    ( "gc.top_heap_mb",
      float_of_int gc1.Gc.top_heap_words *. words /. 1048576.,
      "MB" );
    ("unit.event_queue_ns", u.Units.event_queue_ns, "ns");
    ("unit.resume_ns", u.Units.resume_ns, "ns");
    ("unit.access_hit_ns", Units.mean u.Units.hit_ns, "ns");
    ("unit.access_xfer_ns", Units.mean u.Units.xfer_ns, "ns");
    ("unit.park_wake_ns", u.Units.park_wake_ns, "ns");
    ("attr.engine_s", attr_engine, "s");
    ("attr.coherence_s", attr_coherence, "s");
    ("attr.park_s", attr_park, "s");
    ("attr.residual_s", residual, "s");
  ]

let traced a plan golden =
  (* unit costs first, on a small heap: a large heap left by the passes
     would bill its major-GC work to whatever runs next *)
  let u = Units.measure () in
  let untraced = Run.pass plan in
  let spans = Spans.create () in
  let gc0 = Gc.quick_stat () in
  let traced = Run.pass ~spans plan in
  let gc1 = Gc.quick_stat () in
  let sinks_off =
    if a.workload = Plan.Observed then
      Some
        (Run.pass (Array.map (fun j -> { j with Plan.observed = false }) plan))
    else None
  in
  let judged = [ Run.judge ?golden untraced; Run.judge ?golden traced ] in
  let v, overhead_x =
    match sinks_off with
    | Some off ->
        ( Run.merge (sinks_neutral untraced off :: judged),
          untraced.Run.pass_s /. off.Run.pass_s )
    | None -> (Run.merge judged, 1.)
  in
  report_failures v;
  Printf.printf "traced run of %s, seed %d: %d jobs\n" (Plan.name a.workload)
    a.seed (Array.length plan);
  let ms = layers u ~spans ~traced ~gc0 ~gc1 ~overhead_x in
  Printf.printf
    "pass wall time untraced %.4f s, traced %.4f s: tracing overhead %+.4f s\n\n"
    untraced.Run.pass_s traced.Run.pass_s
    (traced.Run.pass_s -. untraced.Run.pass_s);
  List.iter metric ms;
  (match a.spans_file with
  | Some f ->
      Spans.write_json spans f;
      Printf.printf "(spans written to %s)\n" f
  | None -> ());
  json v ms;
  List.length v.Run.failures

(* ------------------------------------------------------------------ *)

let record a plan =
  let p = Run.pass plan in
  let v = Run.judge p in
  report_failures v;
  if v.Run.failures <> [] then 1
  else begin
    Run.save_golden a.workload ~seed:a.seed p;
    Printf.printf "recorded %s (%d jobs)\n"
      (Run.golden_path a.workload ~seed:a.seed)
      (Array.length plan);
    0
  end

let () =
  let a = parse Sys.argv in
  let plan, golden = setup a in
  if a.setup_only then exit 0;
  let failed =
    if a.record then record a plan
    else if a.traced then traced a plan golden
    else measure a plan golden
  in
  exit (if failed = 0 then 0 else 1)
