(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Tables 2-3, Figures 3-12) plus the prose results
   of sections 5.3 and 8, and runs Bechamel microbenchmarks of the
   native library.

   Every section describes its simulations as independent pure jobs
   (Section.t); the driver fans the jobs of all selected sections
   across a domain pool and renders the tables afterwards, in section
   declaration order.  Because each job builds its own simulation and
   every simulation is seeded-deterministic, stdout is byte-identical
   whatever --jobs says (the Bechamel section excepted: it measures
   host wall-clock, which no amount of determinism machinery can pin).

   Usage:
     bench/main.exe            run everything
     bench/main.exe SECTIONS   run a subset, e.g. `main.exe fig5 fig11`
     bench/main.exe --quick    shorter simulated windows
     bench/main.exe --jobs N   fan simulation jobs across N domains
                               (default: the machine's recommended
                               domain count; --jobs 1 is fully serial)
     bench/main.exe --list     list section names
     bench/main.exe --json     also write per-section engine counters
                               (cpu time, events, parked waiters,
                               simulated cycles/s) to BENCH_PERF.json
     bench/main.exe --trace FILE
                               record every job of the selected sections
                               into a Chrome/Perfetto trace-event JSON
                               (one process per job, one track per
                               simulated thread; byte-identical at any
                               --jobs count).  When --metrics is also
                               given, the sampled timelines ride along
                               as Perfetto counter tracks
     bench/main.exe --metrics FILE
                               sample every job's virtual-time metric
                               timelines (interconnect busy/queued,
                               line occupancy and sharers, lock waiter
                               depth, thread run states) onto a
                               virtual-cycle grid and dump them to FILE
                               (JSON if it ends in .json, else CSV);
                               byte-identical at any --jobs count
     bench/main.exe heatmap    per-platform saturation workload rendered
                               as ASCII heatmaps from the sampled
                               metrics: interconnect utilization and
                               wait-cycle attribution by node pair,
                               thread run-state strips over virtual
                               time, hottest lines; the samples are
                               reconciled exactly against Sim.perf
                               (exit 1 on drift).  Combines with
                               --quick/--jobs
     bench/main.exe profile [SECTIONS]
                               run the sections traced (default fig3;
                               tables are not rendered) and print the
                               contention/coherence profile: per-lock
                               wait/hold split, handoff distance-class
                               matrix, acquisition-latency histogram,
                               transfer accounting by (op, state,
                               distance), state-transition matrix, and
                               a reconciliation against Sim.perf.
                               Combines with --quick/--jobs/--trace.
     bench/main.exe chaos      deterministic crash-sweep over the robust
                               lock paths: every (platform, lock, seed,
                               crash schedule) runs as a pure job, its
                               trace is replayed through the invariant
                               checker, violations are shrunk to minimal
                               repro keys (chaos --repro KEY replays one
                               verbosely).  Prints a per-lock robustness
                               scorecard; exits 1 on any violation.
                               Combines with --quick/--jobs.
     bench/main.exe --compare-perf BASELINE FRESH
                               perf guardrail: exit 1 if FRESH does not
                               list BASELINE's sections, if any of a
                               section's six engine counters (events,
                               parks, wakeups, elided_probes,
                               link_queued_cycles, sim_cycles; the
                               total included) differs from BASELINE's,
                               or if host time regressed (>25% drop in
                               simulated cycles per cpu second globally
                               or in a non-trivial section, or a
                               section's cpu time blowing up >1.75x and
                               >0.5s); every failing (section, counter)
                               is reported before exiting *)

open Ssync_bench

let sections : (string * string * (quick:bool -> Section.t)) list =
  [
    ("table3", "Table 3: local cache/memory latencies",
     fun ~quick:_ -> Figures.table3 ());
    ("table2", "Table 2: coherence latencies by state and distance",
     fun ~quick:_ -> Figures.table2 ());
    ("fig3", "Figure 3: ticket lock variants on the Opteron",
     fun ~quick ->
       Figures.fig3 ~duration:(if quick then 120_000 else 400_000) ());
    ("fig4", "Figure 4: atomic operation throughput",
     fun ~quick ->
       Figures.fig4 ~duration:(if quick then 100_000 else 300_000) ());
    ("fig5", "Figure 5: locks under extreme contention",
     fun ~quick ->
       Figures.fig5 ~duration:(if quick then 80_000 else 250_000) ());
    ("fig6", "Figure 6: uncontested lock acquisition latency",
     fun ~quick:_ -> Figures.fig6 ());
    ("fig7", "Figure 7: locks under very low contention",
     fun ~quick ->
       Figures.fig7 ~duration:(if quick then 80_000 else 250_000) ());
    ("fig8", "Figure 8: best lock by contention level",
     fun ~quick ->
       Figures.fig8 ~duration:(if quick then 60_000 else 200_000) ());
    ("fig9", "Figure 9: one-to-one message passing latency",
     fun ~quick:_ -> Figures.fig9 ());
    ("fig10", "Figure 10: client-server message passing throughput",
     fun ~quick ->
       Figures.fig10 ~duration:(if quick then 100_000 else 300_000) ());
    ("fig11", "Figure 11: hash table (ssht) throughput",
     fun ~quick ->
       Figures_app.fig11 ~duration:(if quick then 60_000 else 150_000) ());
    ("fig12", "Figure 12: Memcached set-only throughput",
     fun ~quick ->
       Figures_app.fig12 ~duration:(if quick then 800_000 else 2_500_000) ());
    ("extra_prefetchw_mp", "Section 5.3: prefetchw message passing",
     fun ~quick:_ -> Figures_app.extra_prefetchw_mp ());
    ("extra_small_platforms", "Section 8: 2-socket platforms",
     fun ~quick:_ -> Figures_app.extra_small_platforms ());
    ("extra_stm", "Section 8: TM2C lock-based vs message-passing",
     fun ~quick ->
       Figures_app.extra_stm ~duration:(if quick then 60_000 else 150_000) ());
    ("false-sharing", "False sharing: padded vs packed per-thread words",
     fun ~quick ->
       Figures.false_sharing ~duration:(if quick then 60_000 else 200_000) ());
    ("table1", "Table 1: platform characteristics",
     fun ~quick:_ -> Figures.table1 ());
    ("preemption", "Fault injection: lock throughput vs preemption rate",
     fun ~quick -> Faults_bench.run ~quick ());
    ("ablations", "Ablations: backoff base, max_pass, placement, occupancy",
     fun ~quick -> Ablations.run ~quick ());
    ("native_bechamel", "Native library microbenchmarks (Bechamel)",
     fun ~quick -> Native_bench.run ~quick);
  ]

(* One machine-readable line per section: the engine-counter deltas of
   its jobs (captured per job inside the executing domain and summed)
   plus the time spent computing it.  [sp_cpu_s] is job cpu time plus
   the serial render time, so it approximates the old serial wall_s and
   stays comparable across --jobs counts; [sim_mcycles_per_s] is
   simulated cycles per cpu second — the simulator's own throughput,
   independent of how many domains ran the jobs. *)
type section_perf = {
  sp_name : string;
  sp_cpu_s : float;
  sp_perf : Ssync_engine.Sim.perf;
}

let sim_mcps ~cpu_s ~sim_cycles =
  if cpu_s <= 0. then 0. else float_of_int sim_cycles /. cpu_s /. 1e6

let perf_json_fields sp =
  let p = sp.sp_perf in
  Printf.sprintf
    "\"cpu_s\":%.3f,\"events\":%d,\"parks\":%d,\"wakeups\":%d,\
     \"elided_probes\":%d,\"link_queued_cycles\":%d,\"sim_cycles\":%d,\
     \"sim_mcycles_per_s\":%.1f"
    sp.sp_cpu_s p.Ssync_engine.Sim.events p.Ssync_engine.Sim.parks
    p.Ssync_engine.Sim.wakeups p.Ssync_engine.Sim.elided_probes
    p.Ssync_engine.Sim.link_queued_cycles p.Ssync_engine.Sim.sim_cycles
    (sim_mcps ~cpu_s:sp.sp_cpu_s ~sim_cycles:p.Ssync_engine.Sim.sim_cycles)

let write_perf_json ~quick ~jobs ~total_wall sps =
  let oc = open_out "BENCH_PERF.json" in
  let total =
    List.fold_left
      (fun acc sp ->
        {
          acc with
          sp_cpu_s = acc.sp_cpu_s +. sp.sp_cpu_s;
          sp_perf = Ssync_engine.Sim.perf_add acc.sp_perf sp.sp_perf;
        })
      { sp_name = "total"; sp_cpu_s = 0.; sp_perf = Ssync_engine.Sim.perf_zero }
      sps
  in
  output_string oc "[\n";
  Printf.fprintf oc "{\"mode\":%S,\"jobs\":%d},\n"
    (if quick then "quick" else "full")
    jobs;
  List.iter
    (fun sp ->
      Printf.fprintf oc "{\"section\":%S,%s},\n" sp.sp_name
        (perf_json_fields sp))
    sps;
  Printf.fprintf oc "{\"section\":\"total\",\"wall_s\":%.3f,%s}\n]\n" total_wall
    (perf_json_fields total);
  close_out oc;
  Printf.printf "(engine counters written to BENCH_PERF.json)\n"

(* ------------------------------------------------------------------ *)
(* Perf guardrail: compare two BENCH_PERF.json files and fail loudly if
   the fresh run shows the simulator regressing against the committed
   baseline.  The files are the harness's own line-per-section output,
   so a tiny hand parser suffices — no JSON library needed (or
   available) in this environment. *)

let find_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and n = String.length line in
  let rec scan i =
    if i + plen > n then None
    else if String.sub line i plen = pat then Some (i + plen)
    else scan (i + 1)
  in
  scan 0

let field_num line key =
  match find_field line key with
  | None -> None
  | Some j ->
      let n = String.length line in
      let k = ref j in
      while
        !k < n
        && (match line.[!k] with '0' .. '9' | '.' | '-' -> true | _ -> false)
      do
        incr k
      done;
      float_of_string_opt (String.sub line j (!k - j))

let field_str line key =
  match find_field line key with
  | None -> None
  | Some j when j < String.length line && line.[j] = '"' -> (
      match String.index_from_opt line (j + 1) '"' with
      | Some e -> Some (String.sub line (j + 1) (e - j - 1))
      | None -> None)
  | Some _ -> None

(* The engine counters every section line carries.  They are
   deterministic, so a fresh run must reproduce the baseline's exactly. *)
let counter_keys =
  [ "events"; "parks"; "wakeups"; "elided_probes"; "link_queued_cycles";
    "sim_cycles" ]

type parsed_section = {
  ps_name : string;
  ps_cpu : float; (* cpu_s *)
  ps_mcps : float option; (* simulated Mcycles per cpu second *)
  ps_counters : (string * float option) list; (* [counter_keys] order *)
}

type file_perf = {
  fp_mode : string;
  fp_mcps : float; (* the total's simulated Mcycles per cpu second *)
  fp_sections : parsed_section list; (* file order, "total" included *)
}

let perf_summary path =
  let ic =
    try open_in path
    with Sys_error e ->
      Printf.eprintf "--compare-perf: cannot open %s: %s\n" path e;
      exit 2
  in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  let lines = lines [] in
  let sections =
    List.filter_map
      (fun l ->
        Option.map
          (fun name ->
            match field_num l "cpu_s" with
            | None ->
                Printf.eprintf
                  "--compare-perf: %s: section %s: malformed line (no cpu_s)\n"
                  path name;
                exit 2
            | Some cpu ->
                {
                  ps_name = name;
                  ps_cpu = cpu;
                  ps_mcps = field_num l "sim_mcycles_per_s";
                  ps_counters =
                    List.map (fun k -> (k, field_num l k)) counter_keys;
                })
          (field_str l "section"))
      lines
  in
  let total = List.find_opt (fun ps -> ps.ps_name = "total") sections in
  match (List.find_map (fun l -> field_str l "mode") lines, total) with
  | Some m, Some { ps_mcps = Some mcps; _ } ->
      { fp_mode = m; fp_mcps = mcps; fp_sections = sections }
  | Some _, Some _ ->
      Printf.eprintf "--compare-perf: %s: malformed total line\n" path;
      exit 2
  | _ ->
      Printf.eprintf "--compare-perf: %s: missing mode or total entry\n" path;
      exit 2

let compare_perf baseline_path fresh_path =
  let b = perf_summary baseline_path in
  let f = perf_summary fresh_path in
  if b.fp_mode <> f.fp_mode then begin
    Printf.eprintf
      "--compare-perf: mode mismatch (baseline %s, fresh %s) — comparing \
       different workloads proves nothing\n"
      b.fp_mode f.fp_mode;
    exit 2
  end;
  let find fp name =
    List.find_opt (fun ps -> ps.ps_name = name) fp.fp_sections
  in
  let bm = b.fp_mcps and fm = f.fp_mcps in
  Printf.printf
    "perf guardrail (%s mode):\n\
    \  sim Mcy/s    %12.1f -> %12.1f  (%+.1f%%, limit -25%%)\n"
    b.fp_mode bm fm
    (100. *. ((fm /. bm) -. 1.));
  (* Every check runs and every failure is reported before the non-zero
     exit, so one CI run shows the full damage instead of the first
     mismatch.  The failure list keeps file order, so the report is
     deterministic. *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if fm < 0.75 *. bm then
    fail "simulated cycles per cpu second dropped >25%% (hot-path slowdown?)";
  (* Both files must list the same sections, and every engine counter
     of every section, the total included, must be equal: the counters
     are deterministic, so a change that moves one must commit the
     regenerated baseline. *)
  List.iter
    (fun ps ->
      if find f ps.ps_name = None then
        fail "section %s: in the baseline, missing from the fresh run"
          ps.ps_name)
    b.fp_sections;
  let show = function Some v -> Printf.sprintf "%.0f" v | None -> "missing" in
  List.iter
    (fun fps ->
      match find b fps.ps_name with
      | None ->
          fail "section %s: in the fresh run, missing from the baseline"
            fps.ps_name
      | Some bps ->
          List.iter2
            (fun (k, bv) (_, fv) ->
              if bv = None || bv <> fv then
                fail "section %s: %s %s -> %s (must be equal)" fps.ps_name k
                  (show bv) (show fv))
            bps.ps_counters fps.ps_counters)
    f.fp_sections;
  List.iter
    (fun fps ->
      match find b fps.ps_name with
      | Some bps when fps.ps_name <> "total" -> (
          let bt = bps.ps_cpu and ft = fps.ps_cpu in
          (* Per-section cpu time, with a deliberately generous
             threshold: the numbers are one-shot wall measurements on a
             possibly noisy host, so only flag a section that both blew
             its budget by 75% and lost more than half a second in
             absolute terms. *)
          if ft > 1.75 *. bt && ft -. bt > 0.5 then begin
            Printf.printf
              "  section %-22s %8.2fs -> %8.2fs  (limit 1.75x and +0.5s)\n"
              fps.ps_name bt ft;
            fail "section %s: cpu time %.2fs -> %.2fs (limit 1.75x and +0.5s)"
              fps.ps_name bt ft
          end;
          (* Per-section simulator throughput (simulated Mcycles per
             cpu second): localizes a hot-path slowdown to the section
             that pays it.  Only sections with a non-trivial baseline
             cpu budget are judged — tiny sections' one-shot timings
             are mostly noise. *)
          (* Sections that run no simulated cycles (native-execution
             tables, render-only extras) have no simulator throughput
             to judge — cpu time there is dominated by host execution,
             so a Mcy/s ratio would be 0/0 noise.  Say so out loud
             rather than leaving a silent hole in the report. *)
          match List.assoc "sim_cycles" fps.ps_counters with
          | Some 0. ->
              Printf.printf
                "  section %-22s (sim_cycles 0: native section, throughput \
                 check skipped)\n"
                fps.ps_name
          | _ -> (
              match (bps.ps_mcps, fps.ps_mcps) with
              | Some bm, Some fm when bt >= 0.5 && bm > 0. && fm < 0.75 *. bm
                ->
                  Printf.printf
                    "  section %-22s %8.1f -> %8.1f sim Mcy/s  (limit -25%%)\n"
                    fps.ps_name bm fm;
                  fail "section %s: sim Mcy/s %.1f -> %.1f (limit -25%%)"
                    fps.ps_name bm fm
              | _ -> ()))
      | _ -> ())
    f.fp_sections;
  match List.rev !failures with
  | [] ->
      Printf.printf
        "OK: %d sections, engine counters equal the baseline, host time \
         within budget\n"
        (List.length f.fp_sections)
  | fs ->
      List.iter (fun s -> Printf.printf "FAIL: %s\n" s) fs;
      exit 1

(* ------------------------------------------------------------------ *)
(* Planning and running.  [plan] picks the named sections in
   declaration order (an unknown name exits 1); [run_planned] fans all
   their jobs across the pool, each run under [Section.observe], and
   pairs every job's observation with its "[section]/[index]" label in
   submission order. *)
let plan ~quick names =
  List.iter
    (fun n ->
      if not (List.exists (fun (s, _, _) -> s = n) sections) then begin
        Printf.eprintf "unknown section %S (use --list to see the choices)\n" n;
        exit 1
      end)
    names;
  List.filter_map
    (fun (name, _, mk) ->
      if List.mem name names then Some (name, mk ~quick) else None)
    sections

let run_planned ~jobs ~trace ~metrics planned =
  let all_jobs =
    Array.concat
      (List.map
         (fun (_, s) -> Array.map (Section.observe ~trace ~metrics) s.Section.jobs)
         planned)
  in
  let results = Ssync_engine.Pool.run ~jobs all_jobs in
  let labels =
    List.concat_map
      (fun (name, s) ->
        List.init (Array.length s.Section.jobs) (Printf.sprintf "%s/%d" name))
      planned
  in
  (results, List.map2 (fun l (o, _) -> (l, o)) labels (Array.to_list results))

let traces observed =
  List.filter_map
    (fun (l, o) -> Option.map (fun tr -> (l, tr)) o.Section.trace)
    observed

let sinks observed =
  List.filter_map
    (fun (l, o) -> Option.map (fun m -> (l, m)) o.Section.metrics)
    observed

(* The stderr trailers' "N jobs on D domains": the planned jobs and the
   --jobs domain count. *)
let jobs_on_domains results ~jobs =
  let plural n = if n = 1 then "" else "s" in
  let n = Array.length results in
  Printf.sprintf "%d job%s on %d domain%s" n (plural n) jobs (plural jobs)

(* --trace: the merged Chrome trace of every observed job, one process
   per label; with --metrics, the sampled timelines ride along as
   Perfetto counter tracks under each job's process.  All chatter goes
   to stderr. *)
let export_trace path observed =
  let traces = traces observed in
  Ssync_trace.Chrome.export_file ~metrics:(sinks observed) path traces;
  let sum f = List.fold_left (fun a (_, tr) -> a + f tr) 0 traces in
  let dropped = sum Ssync_trace.Trace.dropped in
  Printf.eprintf
    "(trace: %d jobs, %d events%s written to %s — load it at \
     https://ui.perfetto.dev)\n"
    (List.length traces) (sum Ssync_trace.Trace.length)
    (if dropped > 0 then
       Printf.sprintf " retained (oldest %d overwritten)" dropped
     else "")
    path

(* --metrics: every job's sampled metric grid, labeled like the trace;
   samples are keyed by virtual time and stable ids, so CI can diff two
   runs directly. *)
let export_metrics path observed =
  let sinks = sinks observed in
  Ssync_metrics.Metrics.dump_file path sinks;
  Printf.eprintf "(metrics: %d jobs written to %s)\n" (List.length sinks) path

let export ~trace_file ~metrics_file observed =
  Option.iter (fun path -> export_trace path observed) trace_file;
  Option.iter (fun path -> export_metrics path observed) metrics_file

(* ------------------------------------------------------------------ *)
(* [profile] subcommand: run the selected sections traced, skip their
   renders, and print the contention/coherence report.  Every table is
   explicitly sorted, so the report is byte-identical at any --jobs
   count.  The closing reconciliation compares the trace aggregates
   (which survive ring wrap-around) against the engine counters booked
   for the jobs; any drift means an instrumentation hook went missing,
   so it exits non-zero. *)
let run_profile ~quick ~jobs ~trace_file ~metrics_file names =
  let module Trace = Ssync_trace.Trace in
  let module Profile = Ssync_trace.Profile in
  let module Table = Ssync_report.Table in
  let planned = plan ~quick (if names = [] then [ "fig3" ] else names) in
  let t0 = Unix.gettimeofday () in
  let results, observed =
    run_planned ~jobs ~trace:true ~metrics:(metrics_file <> None) planned
  in
  let prof = Profile.of_traces (List.map snd (traces observed)) in
  Printf.printf "Contention & coherence profile — sections: %s (%d jobs)\n"
    (String.concat " " (List.map (fun (n, _) -> n) planned))
    (Array.length results);
  let section title tbl =
    Printf.printf "\n%s\n" title;
    Table.print tbl
  in
  let tt = prof.Profile.totals in
  if tt.Trace.t_acquires > 0 then begin
    section "Per-lock contention (wait/hold split, handoff distance mix)"
      (Profile.lock_table prof);
    section "Acquisition-wait histogram (cycles, log2 buckets)"
      (Profile.wait_hist_table prof)
  end;
  if tt.Trace.t_xfers > 0 then begin
    section "Coherence transfers by (platform, op, state, distance)"
      (Profile.coherence_table ~top:24 prof);
    section "State transitions (requests by pre/post line state)"
      (Profile.transitions_table prof);
    section "Hottest cache lines" (Profile.lines_table ~top:10 prof)
  end;
  if Profile.rq_total prof > 0 then
    section "Interconnect wait attribution (queued cycles by distance)"
      (Profile.interconnect_table prof);
  section "Run summary" (Profile.summary_table prof);
  export ~trace_file ~metrics_file observed;
  Printf.eprintf "\n(profile wall time: %.1fs, %s)\n"
    (Unix.gettimeofday () -. t0) (jobs_on_domains results ~jobs);
  let p = (Ssync_engine.Pool.total_stats results).Ssync_engine.Pool.perf in
  let ok = ref true in
  let check name traced engine =
    if traced = engine then
      Printf.printf "reconcile %-13s %12d  OK\n" name traced
    else begin
      Printf.printf "reconcile %-13s trace %d vs Sim.perf %d  MISMATCH\n" name
        traced engine;
      ok := false
    end
  in
  Printf.printf "\n";
  check "parks" tt.Trace.t_parks p.Ssync_engine.Sim.parks;
  check "wakeups" tt.Trace.t_wakes p.Ssync_engine.Sim.wakeups;
  check "elided probes" tt.Trace.t_elided p.Ssync_engine.Sim.elided_probes;
  check "link queued cy" (Profile.rq_total prof)
    p.Ssync_engine.Sim.link_queued_cycles;
  if not !ok then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
  | "--compare-perf" :: rest -> (
      match rest with
      | [ baseline; fresh ] ->
          compare_perf baseline fresh;
          exit 0
      | _ ->
          Printf.eprintf "usage: --compare-perf BASELINE.json FRESH.json\n";
          exit 2)
  | _ -> ());
  let quick = List.mem "--quick" args in
  let json = List.mem "--json" args in
  let jobs = ref (Ssync_engine.Pool.default_jobs ()) in
  let rec strip_jobs = function
    | [] -> []
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs := j;
            strip_jobs rest
        | _ ->
            Printf.eprintf "--jobs: expected a positive integer, got %S\n" n;
            exit 2)
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs: missing domain count\n";
        exit 2
    | a :: rest -> a :: strip_jobs rest
  in
  let args = strip_jobs args in
  (* [flag FILE]: the file is the next argument, which is no flag *)
  let strip_file flag args =
    let file = ref None in
    let rec strip = function
      | [] -> []
      | a :: f :: rest
        when a = flag && not (String.starts_with ~prefix:"--" f) ->
          file := Some f;
          strip rest
      | a :: _ when a = flag ->
          Printf.eprintf "%s: missing output file\n" flag;
          exit 2
      | a :: rest -> a :: strip rest
    in
    let args = strip args in
    (!file, args)
  in
  let trace_file, args = strip_file "--trace" args in
  let metrics_file, args = strip_file "--metrics" args in
  let args =
    List.filter (fun a -> a <> "--quick" && a <> "--json") args
  in
  (match args with
  | "profile" :: names ->
      run_profile ~quick ~jobs:!jobs ~trace_file ~metrics_file names;
      exit 0
  | "chaos" :: rest ->
      Chaos.run ~quick ~jobs:!jobs rest;
      exit 0
  | "heatmap" :: rest ->
      if rest <> [] then begin
        Printf.eprintf "heatmap: unexpected arguments: %s\n"
          (String.concat " " rest);
        exit 2
      end;
      Heatmap_bench.run ~quick ~jobs:!jobs ();
      exit 0
  | _ -> ());
  if List.mem "--list" args then
    List.iter (fun (name, desc, _) -> Printf.printf "%-22s %s\n" name desc) sections
  else begin
    let planned =
      plan ~quick
        (if args = [] then List.map (fun (n, _, _) -> n) sections else args)
    in
    Printf.printf
      "SSYNC benchmark harness — reproduction of David, Guerraoui, \
       Trigonakis, SOSP'13.\nAll cross-platform numbers come from the \
       calibrated simulator; see EXPERIMENTS.md.\n%!";
    let t0 = Unix.gettimeofday () in
    (* Fan every job of the planned sections across the pool, then
       render in declaration order. *)
    let results, observed =
      run_planned ~jobs:!jobs ~trace:(trace_file <> None)
        ~metrics:(metrics_file <> None) planned
    in
    let perfs = ref [] in
    let start = ref 0 in
    List.iter
      (fun (name, s) ->
        let n = Array.length s.Section.jobs in
        if s.Section.host_timed then begin
          let g0 = Unix.gettimeofday () in
          Gc.full_major ();
          Printf.eprintf "(%s: full major collection first, %.3fs)\n%!" name
            (Unix.gettimeofday () -. g0)
        end;
        let r0 = Unix.gettimeofday () in
        s.Section.render ();
        let render_s = Unix.gettimeofday () -. r0 in
        let stats =
          Ssync_engine.Pool.total_stats (Array.sub results !start n)
        in
        start := !start + n;
        perfs :=
          {
            sp_name = name;
            sp_cpu_s =
              (float_of_int stats.Ssync_engine.Pool.wall_ns /. 1e9) +. render_s;
            sp_perf = stats.Ssync_engine.Pool.perf;
          }
          :: !perfs)
      planned;
    export ~trace_file ~metrics_file observed;
    let total_wall = Unix.gettimeofday () -. t0 in
    (* stderr, so stdout stays byte-identical across runs and --jobs *)
    let p = (Ssync_engine.Pool.total_stats results).Ssync_engine.Pool.perf in
    Printf.eprintf
      "\n(total wall time: %.1fs, %s; %d of %d resumptions queued)\n"
      total_wall (jobs_on_domains results ~jobs:!jobs)
      p.Ssync_engine.Sim.queued p.Ssync_engine.Sim.events;
    if json then
      write_perf_json ~quick ~jobs:!jobs ~total_wall
        (List.rev !perfs)
  end
