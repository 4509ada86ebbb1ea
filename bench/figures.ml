(* One generator per paper table/figure.  Each returns a {!Section.t}:
   the simulations are described as independent pure jobs (fanned across
   domains by the driver), and the printing happens afterwards in the
   section's [render], reading the job slots.  Durations are chosen so
   the full harness runs in minutes on one host CPU; shapes, not
   absolute precision, are the target (see EXPERIMENTS.md). *)

open Ssync_platform
open Ssync_report

let hr title =
  Printf.printf "\n==== %s ====\n%!" title

let paper_platforms = Arch.paper_platform_ids

(* Thread counts: the paper's x axes, scaled down to a small set of
   sample points per platform. *)
let thread_points pid =
  match pid with
  | Arch.Opteron -> [ 1; 2; 6; 12; 18; 24; 36; 48 ]
  | Arch.Xeon -> [ 1; 2; 10; 20; 40; 60; 80 ]
  | Arch.Niagara -> [ 1; 2; 8; 16; 32; 48; 64 ]
  | Arch.Tilera -> [ 1; 2; 6; 12; 18; 24; 36 ]
  | Arch.Opteron2 -> [ 1; 2; 4; 8 ]
  | Arch.Xeon2 -> [ 1; 2; 6; 12 ]

(* --------------------------- Table 1 ------------------------------ *)

let table1 () =
  Section.serial (fun () ->
      hr "Table 1: hardware and OS characteristics of the target platforms";
      let t =
        Table.create
          ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left; Table.Left ]
          ("" :: List.map (fun (m : Table1.t) -> Arch.platform_name m.Table1.id)
                   Table1.all)
      in
      let field_names = List.map fst (Table1.rows Table1.opteron) in
      List.iteri
        (fun i name ->
          Table.add_row t
            (name
            :: List.map
                 (fun m -> snd (List.nth (Table1.rows m) i))
                 Table1.all))
        field_names;
      Table.print t)

(* --------------------------- Table 3 ------------------------------ *)

let table3 () =
  let jobs, got =
    Section.sweep paper_platforms (fun pid -> Ssync_ccbench.Ccbench.table3 pid)
  in
  Section.make ~jobs (fun () ->
      hr
        "Table 3: local caches and memory latencies (cycles) [paper values \
         in ()]";
      let t =
        Table.create
          ~aligns:
            [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
          [ "level"; "Opteron"; "Xeon"; "Niagara"; "Tilera" ]
      in
      let tables = List.mapi (fun i _ -> got i) paper_platforms in
      List.iter
        (fun lvl ->
          let cell pid table3 =
            match List.assoc lvl table3 with
            | Some v -> (
                match Latencies.table3 pid lvl with
                | Some p -> Table.vs_paper ~measured:v ~paper:(Some p)
                | None -> string_of_int v)
            | None -> "-"
          in
          Table.add_row t
            (Arch.cache_level_name lvl
            :: List.map2 cell paper_platforms tables))
        [ Arch.L1; Arch.L2; Arch.LLC; Arch.RAM ];
      Table.print t)

(* --------------------------- Table 2 ------------------------------ *)

let table2 () =
  let jobs, got =
    Section.sweep paper_platforms (fun pid -> Ssync_ccbench.Ccbench.table2 pid)
  in
  let dir_jobs, got_dir =
    Section.sweep [ () ] (fun () ->
        Ssync_ccbench.Ccbench.opteron_remote_directory_load ())
  in
  Section.make ~jobs:(Array.append jobs dir_jobs) (fun () ->
      hr "Table 2: coherence latencies by state and distance [measured (paper)]";
      List.iteri
        (fun i pid ->
          Printf.printf "\n-- %s --\n" (Arch.platform_name pid);
          let cells = got i in
          let t =
            Table.create
              ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Right ]
              [ "op"; "state"; "distance"; "cycles" ]
          in
          List.iter
            (fun (c : Ssync_ccbench.Ccbench.cell) ->
              Table.add_row t
                [
                  Arch.memop_name c.Ssync_ccbench.Ccbench.op;
                  Arch.cstate_name c.Ssync_ccbench.Ccbench.state;
                  Arch.distance_name c.Ssync_ccbench.Ccbench.distance;
                  Table.vs_paper ~measured:c.Ssync_ccbench.Ccbench.measured
                    ~paper:c.Ssync_ccbench.Ccbench.paper;
                ])
            cells;
          Table.print t)
        paper_platforms;
      Printf.printf
        "\nOpteron worst-case remote directory load (section 5.2, paper \
         ~312): %d\n"
        (got_dir 0))

(* --------------------------- Figure 3 ----------------------------- *)

let fig3 ?(duration = 300_000) () =
  let threads = [ 1; 2; 6; 12; 18; 24; 36; 48 ] in
  let variants =
    [
      ("non-optimized", Ssync_simlocks.Simlock.Ticket_spin);
      ("back-off", Ssync_simlocks.Simlock.Ticket);
      ("back-off+prefetchw", Ssync_simlocks.Simlock.Ticket_prefetchw);
    ]
  in
  let combos =
    List.concat_map
      (fun (_, variant) -> List.map (fun n -> (variant, n)) threads)
      variants
  in
  let jobs, got =
    Section.sweep combos (fun (variant, n) ->
        Ssync_ccbench.Lock_bench.figure3_latency ~duration variant ~threads:n)
  in
  Section.make ~jobs (fun () ->
      hr
        "Figure 3: ticket lock acquire+release latency on the Opteron \
         (cycles, lower is better)";
      let next = Section.cursor got in
      let series =
        List.map
          (fun (name, _) -> Series.of_fn name threads (fun _ -> next ()))
          variants
      in
      print_endline (Series.table ~x_label:"threads" series))

(* --------------------------- Figure 4 ----------------------------- *)

let fig4 ?(duration = 250_000) () =
  let jobs, got =
    Section.sweep paper_platforms (fun pid ->
        Ssync_ccbench.Atomic_bench.figure4 ~duration pid
          ~thread_counts:(thread_points pid))
  in
  Section.make ~jobs (fun () ->
      hr "Figure 4: throughput of atomic operations on one location (Mops/s)";
      List.iteri
        (fun i pid ->
          Printf.printf "\n-- %s --\n" (Arch.platform_name pid);
          let results = got i in
          let series =
            List.map
              (fun (kind, points) ->
                Series.make
                  (Ssync_ccbench.Atomic_bench.op_kind_name kind)
                  (List.map (fun (n, m) -> (n, m)) points))
              results
          in
          print_endline (Series.table ~x_label:"threads" series))
        paper_platforms)

(* ------------------------- Figures 5 and 7 ------------------------ *)

let lock_throughput_figure ~title ~n_locks ?(duration = 200_000) () =
  let combos =
    List.concat_map
      (fun pid ->
        let p = Platform.get pid in
        List.concat_map
          (fun algo -> List.map (fun n -> (pid, algo, n)) (thread_points pid))
          (Ssync_simlocks.Simlock.algos_for p))
      paper_platforms
  in
  let jobs, got =
    Section.sweep combos (fun (pid, algo, n) ->
        (Ssync_ccbench.Lock_bench.throughput ~duration pid algo ~threads:n
           ~n_locks)
          .Ssync_engine.Harness.mops)
  in
  Section.make ~jobs (fun () ->
      hr title;
      let next = Section.cursor got in
      List.iter
        (fun pid ->
          let p = Platform.get pid in
          Printf.printf "\n-- %s --\n" (Arch.platform_name pid);
          let series =
            List.map
              (fun algo ->
                Series.of_fn
                  (Ssync_simlocks.Simlock.name algo)
                  (thread_points pid)
                  (fun _ -> next ()))
              (Ssync_simlocks.Simlock.algos_for p)
          in
          print_endline (Series.table ~x_label:"threads" series))
        paper_platforms)

let fig5 ?duration () =
  lock_throughput_figure
    ~title:
      "Figure 5: lock throughput, single lock / extreme contention (Mops/s)"
    ~n_locks:1 ?duration ()

let fig7 ?duration () =
  lock_throughput_figure
    ~title:"Figure 7: lock throughput, 512 locks / very low contention (Mops/s)"
    ~n_locks:512 ?duration ()

(* --------------------------- Figure 6 ----------------------------- *)

let fig6 () =
  let jobs, got =
    Section.sweep paper_platforms (fun pid ->
        let p = Platform.get pid in
        let distances = Latencies.distance_classes pid in
        List.map
          (fun algo ->
            ( Ssync_ccbench.Lock_bench.single_thread_latency pid algo,
              List.map
                (fun d ->
                  Ssync_ccbench.Lock_bench.uncontested_latency pid algo d)
                distances ))
          (Ssync_simlocks.Simlock.algos_for p))
  in
  Section.make ~jobs (fun () ->
      hr
        "Figure 6: uncontested lock acquisition latency by previous holder \
         location (cycles)";
      List.iteri
        (fun i pid ->
          let p = Platform.get pid in
          Printf.printf "\n-- %s --\n" (Arch.platform_name pid);
          let algos = Ssync_simlocks.Simlock.algos_for p in
          let distances = Latencies.distance_classes pid in
          let t =
            Table.create
              ~aligns:
                (Table.Left
                :: List.map
                     (fun _ -> Table.Right)
                     ("s" :: List.map Arch.distance_name distances))
              ("lock" :: "single thread" :: List.map Arch.distance_name distances)
          in
          List.iter2
            (fun algo (single, cells) ->
              let single = Printf.sprintf "%.0f" single in
              let cells =
                List.map
                  (function
                    | Some l -> Printf.sprintf "%.0f" l
                    | None -> "-")
                  cells
              in
              Table.add_row t
                (Ssync_simlocks.Simlock.name algo :: single :: cells))
            algos (got i);
          Table.print t)
        paper_platforms)

(* --------------------------- Figure 8 ----------------------------- *)

(* Figures 8 and 11 sample each platform at four thread counts, one
   thread first, and run every lock at each. *)
let thread_samples pid =
  match pid with
  | Arch.Opteron -> [ 1; 6; 18; 36 ]
  | Arch.Xeon -> [ 1; 10; 18; 36 ]
  | _ -> [ 1; 8; 18; 36 ]

(* Their plan: for each of [outer] (a lock count, a table config) and
   each paper platform, one block of (lock, threads) jobs, lock-major. *)
let best_lock_plan outer =
  List.concat_map
    (fun o ->
      List.concat_map
        (fun pid ->
          List.concat_map
            (fun algo ->
              List.map (fun n -> (o, pid, algo, n)) (thread_samples pid))
            (Ssync_simlocks.Simlock.algos_for (Platform.get pid)))
        paper_platforms)
    outer

(* Read [pid]'s next block from [next] and give, per thread sample, the
   threads with [Lock_bench.best_lock]'s (lock, Mops, scalability). *)
let best_lock_rows pid next =
  let samples = thread_samples pid in
  let runs =
    List.map
      (fun algo -> (algo, Array.of_list (List.map (fun _ -> next ()) samples)))
      (Ssync_simlocks.Simlock.algos_for (Platform.get pid))
  in
  List.mapi
    (fun i threads -> (threads, Ssync_ccbench.Lock_bench.best_lock runs i))
    samples

let fig8 ?(duration = 200_000) () =
  let lock_counts = [ 4; 16; 32; 128 ] in
  let jobs, got =
    Section.sweep (best_lock_plan lock_counts)
      (fun (n_locks, pid, algo, threads) ->
        (Ssync_ccbench.Lock_bench.throughput ~duration pid algo ~threads
           ~n_locks)
          .Ssync_engine.Harness.mops)
  in
  Section.make ~jobs (fun () ->
      hr
        "Figure 8: best lock and scalability by number of locks (\"X : Y\" = \
         scalability vs single thread : best lock)";
      let next = Section.cursor got in
      List.iter
        (fun n_locks ->
          Printf.printf "\n-- %d locks --\n" n_locks;
          let t =
            Table.create
              ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left ]
              [ "platform"; "threads"; "Mops/s"; "X : best lock" ]
          in
          List.iter
            (fun pid ->
              List.iter
                (fun (threads, (algo, mops, x)) ->
                  Table.add_row t
                    [
                      Arch.platform_name pid;
                      string_of_int threads;
                      Printf.sprintf "%.1f" mops;
                      Printf.sprintf "%.1fx : %s" x
                        (Ssync_simlocks.Simlock.name algo);
                    ])
                (best_lock_rows pid next))
            paper_platforms;
          Table.print t)
        lock_counts)

(* --------------------------- Figure 9 ----------------------------- *)

let fig9 () =
  let jobs, got =
    Section.sweep paper_platforms (fun pid ->
        List.map
          (fun d -> (d, Ssync_ccbench.Mp_bench.one_to_one pid d))
          (Latencies.distance_classes pid))
  in
  Section.make ~jobs (fun () ->
      hr
        "Figure 9: one-to-one message passing latency by distance (cycles; \
         paper: e.g. Opteron one-way 262..660, Tilera hw 61..64)";
      let rows =
        List.concat
          (List.mapi
             (fun i pid ->
               List.filter_map
                 (fun (d, r) ->
                   match r with
                   | None -> None
                   | Some r ->
                       Some
                         [
                           Arch.platform_name pid;
                           Arch.distance_name d;
                           Printf.sprintf "%.0f" r.Ssync_ccbench.Mp_bench.one_way;
                           Printf.sprintf "%.0f"
                             r.Ssync_ccbench.Mp_bench.round_trip;
                         ])
                 (got i))
             paper_platforms)
      in
      Table.print
        (Table.of_rows
           ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
           [ "platform"; "distance"; "one-way"; "round-trip" ]
           rows))

(* --------------------------- Figure 10 ---------------------------- *)

let fig10 ?(duration = 250_000) () =
  let client_counts pid =
    let n = Platform.n_cores (Platform.get pid) - 1 in
    List.filter (fun c -> c <= n) [ 1; 2; 6; 12; 18; 24; 35 ]
  in
  let modes =
    [
      ("one-way", Ssync_ccbench.Mp_bench.One_way);
      ("round-trip", Ssync_ccbench.Mp_bench.Round_trip);
    ]
  in
  let combos =
    List.concat_map
      (fun pid ->
        List.concat_map
          (fun (_, mode) ->
            List.map (fun c -> (pid, mode, c)) (client_counts pid))
          modes)
      paper_platforms
  in
  let jobs, got =
    Section.sweep combos (fun (pid, mode, c) ->
        Ssync_ccbench.Mp_bench.client_server ~duration pid mode ~clients:c)
  in
  Section.make ~jobs (fun () ->
      hr "Figure 10: client-server message passing throughput (Mops/s)";
      let next = Section.cursor got in
      List.iter
        (fun pid ->
          Printf.printf "\n-- %s --\n" (Arch.platform_name pid);
          let series =
            List.map
              (fun (name, _) ->
                Series.of_fn name (client_counts pid) (fun _ -> next ()))
              modes
          in
          print_endline (Series.table ~x_label:"clients" series))
        paper_platforms)

(* ----------------------- False sharing --------------------------- *)

(* Padded vs packed layouts of per-thread words (Fs_bench): the
   workload has zero logical contention, so every gap between the two
   curves is pure false sharing — line-granular coherence plus
   interconnect occupancy, which single-word lines could not express. *)
let false_sharing ?(duration = 200_000) () =
  let fs_thread_points = [ 2; 4; 8 ] in
  let combos =
    List.concat_map
      (fun pid ->
        List.concat_map
          (fun w ->
            List.concat_map
              (fun l ->
                List.map
                  (fun threads -> (pid, w, l, threads))
                  fs_thread_points)
              Ssync_ccbench.Fs_bench.all_layouts)
          Ssync_ccbench.Fs_bench.all_workloads)
      paper_platforms
  in
  let jobs, got =
    Section.sweep combos (fun (pid, w, l, threads) ->
        (Ssync_ccbench.Fs_bench.throughput ~duration pid w l ~threads)
          .Ssync_engine.Harness.mops)
  in
  Section.make ~jobs (fun () ->
      hr
        "False sharing: private per-thread words, padded vs packed lines \
         (Mops/s)";
      let next = Section.cursor got in
      List.iter
        (fun pid ->
          Printf.printf "\n-- %s --\n" (Arch.platform_name pid);
          let series =
            List.concat_map
              (fun w ->
                List.map
                  (fun l ->
                    Series.of_fn
                      (Printf.sprintf "%s %s"
                         (Ssync_ccbench.Fs_bench.workload_name w)
                         (Ssync_ccbench.Fs_bench.layout_name l))
                      fs_thread_points
                      (fun _ -> next ()))
                  Ssync_ccbench.Fs_bench.all_layouts)
              Ssync_ccbench.Fs_bench.all_workloads
          in
          print_endline (Series.table ~x_label:"threads" series))
        paper_platforms)
