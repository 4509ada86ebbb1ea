(* Application-level experiments: the hash table (Figure 11), Memcached
   (Figure 12), and the extra results the paper reports in prose
   (prefetchw message passing, small-scale multi-sockets, STM).  Like
   Figures, each section describes its simulations as independent pure
   jobs and prints from the results afterwards. *)

open Ssync_platform
open Ssync_engine
open Ssync_report
open Ssync_workload

let hr title = Printf.printf "\n==== %s ====\n%!" title

(* ------------------------- Figure 11 ------------------------------ *)

(* Lock-based ssht throughput: [threads] workers over the 80/10/10 mix. *)
let ssht_lock_throughput pid algo ~threads ~n_buckets ~capacity ~duration :
    float =
  let p = Platform.get pid in
  (* the bound leaves room for the pre-fill phase before the barrier *)
  Harness.simulate ~until:((duration * 12) + 80_000_000) p (fun sim mem ->
      let t =
        Ssync_ssht.Ssht_sim.create ~lock_algo:algo
          ~home_core:(Platform.place p 0) mem p ~n_threads:threads ~n_buckets
          ~capacity
      in
      let key_space = n_buckets * capacity in
      let local_work = Platform.local_work_for p ~threads in
      let b = Sim.make_barrier threads in
      let ops = Array.make threads 0 in
      for tid = 0 to threads - 1 do
        Sim.spawn sim ~core:(Platform.place p tid) (fun () ->
            if tid = 0 then Ssync_ssht.Ssht_sim.prefill t ~tid ~key_space;
            Sim.await b;
            let rng = Rng.create ~seed:(tid + 1) in
            let deadline = Sim.now () + duration in
            let n = ref 0 in
            while Sim.now () < deadline do
              let k = Rng.int rng key_space in
              Sim.pause local_work; (* key handling, hashing *)
              (match Op_mix.sample Op_mix.paper rng with
              | Op_mix.Get ->
                  ignore (Ssync_ssht.Ssht_sim.get_or t ~tid k ~default:0)
              | Op_mix.Put ->
                  ignore (Ssync_ssht.Ssht_sim.put t ~tid k (k * 2))
              | Op_mix.Remove -> ignore (Ssync_ssht.Ssht_sim.remove t ~tid k));
              incr n
            done;
            ops.(tid) <- !n)
      done;
      fun _ ->
        Platform.mops p ~ops:(Array.fold_left ( + ) 0 ops) ~cycles:duration)

(* Message-passing ssht: one server per three threads (paper's best). *)
let ssht_mp_throughput pid ~threads ~n_buckets ~capacity ~duration : float =
  let p = Platform.get pid in
  let n_servers =
    max 1 (threads / Ssync_simmp.Client_server.default_server_share)
  in
  let n_clients = max 1 (threads - n_servers) in
  if n_servers + n_clients > Platform.n_cores p then 0.
  else
    Harness.simulate ~until:(duration * 12) p (fun sim mem ->
        let server_cores = Array.init n_servers (fun i -> Platform.place p i) in
        let client_cores =
          Array.init n_clients (fun i -> Platform.place p (n_servers + i))
        in
        let t =
          Ssync_ssht.Ssht_mp.create mem p ~server_cores ~client_cores
            ~touch_lines:3
            ~server_work:(Platform.local_work p)
        in
        let key_space = n_buckets * capacity in
        (* prefill directly into the server partitions (free, like the
           lock-based prefill which happens before the measured window) *)
        for k = 0 to (key_space / 2) - 1 do
          let s = Ssync_ssht.Ssht_mp.server_of t k in
          Hashtbl.replace
            t.Ssync_ssht.Ssht_mp.servers.(s).Ssync_ssht.Ssht_mp.table k (k * 2)
        done;
        for i = 0 to n_servers - 1 do
          Sim.spawn sim ~core:server_cores.(i) (fun () ->
              Ssync_ssht.Ssht_mp.run_server t i)
        done;
        let ops = Array.make n_clients 0 in
        let b = Sim.make_barrier n_clients in
        for c = 0 to n_clients - 1 do
          Sim.spawn sim ~core:client_cores.(c) (fun () ->
              Sim.await b;
              let rng = Rng.create ~seed:(c + 1) in
              let deadline = Sim.now () + duration in
              let n = ref 0 in
              while Sim.now () < deadline do
                let k = Rng.int rng key_space in
                Sim.pause (Platform.local_work p); (* key handling, hashing *)
                (match Op_mix.sample Op_mix.paper rng with
                | Op_mix.Get -> ignore (Ssync_ssht.Ssht_mp.get t ~client:c k)
                | Op_mix.Put ->
                    ignore (Ssync_ssht.Ssht_mp.put t ~client:c k (k * 2))
                | Op_mix.Remove ->
                    ignore (Ssync_ssht.Ssht_mp.remove t ~client:c k));
                incr n
              done;
              ops.(c) <- !n;
              Ssync_ssht.Ssht_mp.stop t ~client:c)
        done;
        fun _ ->
          Platform.mops p ~ops:(Array.fold_left ( + ) 0 ops) ~cycles:duration)

let fig11 ?(duration = 150_000) () =
  let configs = [ (512, 12); (512, 48); (12, 12); (12, 48) ] in
  (* One job per (config, platform, lock algo, thread count) plus one
     per (config, platform, thread count) for the message-passing
     variant; the best-lock column reads the 1-thread slots for the
     single-thread best. *)
  let mp_combos =
    List.concat_map
      (fun cfg ->
        List.concat_map
          (fun pid ->
            List.map (fun n -> (cfg, pid, n)) (Figures.thread_samples pid))
          Arch.paper_platform_ids)
      configs
  in
  let lock_jobs, got_lock =
    Section.sweep (Figures.best_lock_plan configs)
      (fun ((n_buckets, capacity), pid, algo, n) ->
        ssht_lock_throughput pid algo ~threads:n ~n_buckets ~capacity ~duration)
  in
  let mp_jobs, got_mp =
    Section.sweep mp_combos (fun ((n_buckets, capacity), pid, n) ->
        ssht_mp_throughput pid ~threads:n ~n_buckets ~capacity ~duration)
  in
  Section.make ~jobs:(Array.append lock_jobs mp_jobs) (fun () ->
      hr
        "Figure 11: ssht throughput (Mops/s); \"X : Y\" = scalability : best \
         lock; mp = message-passing version";
      let next_lock = Section.cursor got_lock in
      let next_mp = Section.cursor got_mp in
      List.iter
        (fun (n_buckets, capacity) ->
          Printf.printf "\n-- %d buckets, %d entries/bucket --\n" n_buckets
            capacity;
          let t =
            Table.create
              ~aligns:
                [ Table.Left; Table.Right; Table.Right; Table.Left; Table.Right ]
              [ "platform"; "threads"; "best-lock Mops"; "X : lock"; "mp Mops" ]
          in
          List.iter
            (fun pid ->
              List.iter
                (fun (threads, (algo, best, x)) ->
                  Table.add_row t
                    [
                      Arch.platform_name pid;
                      string_of_int threads;
                      Printf.sprintf "%.1f" best;
                      Printf.sprintf "%.1fx : %s" x
                        (Ssync_simlocks.Simlock.name algo);
                      Printf.sprintf "%.1f" (next_mp ());
                    ])
                (Figures.best_lock_rows pid next_lock))
            Arch.paper_platform_ids;
          Table.print t)
        configs)

(* ------------------------- Figure 12 ------------------------------ *)

let fig12 ?(duration = 2_000_000) () =
  let samples pid =
    match pid with Arch.Xeon -> [ 1; 10; 18 ] | _ -> [ 1; 6; 18 ]
  in
  let combos =
    List.concat_map
      (fun pid ->
        List.concat_map
          (fun threads ->
            List.map
              (fun algo -> (pid, threads, algo))
              Ssync_kvs.Kvs_sim.figure12_locks)
          (samples pid))
      Arch.paper_platform_ids
  in
  let jobs, got =
    Section.sweep combos (fun (pid, threads, algo) ->
        Ssync_kvs.Kvs_sim.set_throughput ~duration pid algo ~threads)
  in
  Section.make ~jobs (fun () ->
      hr
        "Figure 12: Memcached-model set-only throughput (Kops/s) by lock \
         algorithm (paper: TAS/TICKET/MCS beat MUTEX by 29-50%)";
      let t =
        Table.create
          ~aligns:
            [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
              Table.Right ]
          [ "platform"; "threads"; "MUTEX"; "TAS"; "TICKET"; "MCS" ]
      in
      let next = Section.cursor got in
      let speedups = ref [] in
      List.iter
        (fun pid ->
          let best_overall = ref 0. and single_best = ref 0. in
          List.iter
            (fun threads ->
              let row =
                List.map (fun _ -> next ()) Ssync_kvs.Kvs_sim.figure12_locks
              in
              List.iter
                (fun v ->
                  if threads = 1 then single_best := Float.max !single_best v;
                  best_overall := Float.max !best_overall v)
                row;
              Table.add_row t
                (Arch.platform_name pid :: string_of_int threads
                :: List.map (fun v -> Printf.sprintf "%.0f" v) row))
            (samples pid);
          if !single_best > 0. then
            speedups :=
              (Arch.platform_name pid, !best_overall /. !single_best)
              :: !speedups)
        Arch.paper_platform_ids;
      Table.print t;
      Printf.printf
        "\nmax speed-up vs single thread (paper: 3.9x / 6x / 6.03x / 5.9x):\n";
      List.iter
        (fun (name, x) -> Printf.printf "  %s: %.1fx\n" name x)
        (List.rev !speedups))

(* ----------------------- extra experiments ------------------------ *)

let extra_prefetchw_mp () =
  let jobs, got =
    Section.sweep [ () ] (fun () ->
        Ssync_ccbench.Mp_bench.opteron_prefetchw_speedup ())
  in
  Section.make ~jobs (fun () ->
      hr
        "Extra (section 5.3): Opteron message passing with/without prefetchw \
         (paper: up to 2.5x faster)";
      let plain, pfw = got 0 in
      Printf.printf
        "round-trip, two hops: plain %.0f cycles, prefetchw %.0f cycles -> \
         %.2fx\n"
        plain pfw (plain /. pfw))

let extra_small_platforms () =
  (* pure cost-model arithmetic; no simulations to fan out *)
  Section.serial (fun () ->
      hr
        "Extra (section 8): small-scale multi-sockets; cross/intra-socket \
         load latency ratios (paper: ~1.6x Opteron2, ~2.7x Xeon2)";
      List.iter
        (fun pid ->
          let paper_ratio =
            Option.get (Latencies.small_platform_cross_intra_ratio pid)
          in
          let p = Platform.get pid in
          let topo = p.Platform.topo in
          let mk holder : Ssync_platform.Cost_model.view =
            {
              state = Arch.Modified;
              owner = holder;
              sharers = Ssync_platform.Coreset.of_list [];
              home = topo.Topology.mem_node_of_core holder;
              llc_dirty = false;
            }
          in
          let intra = Cost_model.op_latency topo Arch.Load ~requester:0 (mk 1) in
          let cross =
            Cost_model.op_latency topo Arch.Load ~requester:0
              (mk (Platform.n_cores p - 1))
          in
          Printf.printf "%s: intra %d, cross %d -> %.2fx (paper ~%.1fx)\n"
            (Arch.platform_name pid) intra cross
            (float_of_int cross /. float_of_int intra)
            paper_ratio)
        [ Arch.Opteron2; Arch.Xeon2 ])

(* STM bank benchmark: lock-based vs message-passing TM2C backends. *)
let stm_throughput pid backend ~threads ~accounts ~duration : float =
  let p = Platform.get pid in
  Harness.simulate ~until:(duration * 12) p (fun sim mem ->
      let txns = Array.make threads 0 in
      (match backend with
      | `Lock ->
          let t =
            Ssync_tm.Tm_sim.create_lock_based ~home_core:(Platform.place p 0)
              mem ~n_cells:accounts
          in
          let b = Sim.make_barrier threads in
          for tid = 0 to threads - 1 do
            Sim.spawn sim ~core:(Platform.place p tid) (fun () ->
                Sim.await b;
                let rng = Rng.create ~seed:(tid + 1) in
                let deadline = Sim.now () + duration in
                let n = ref 0 in
                while Sim.now () < deadline do
                  let a = Rng.int rng accounts and c = Rng.int rng accounts in
                  if a <> c then begin
                    let cells = List.sort_uniq compare [ a; c ] in
                    ignore
                      (Ssync_tm.Tm_sim.transaction_lock_based t ~cells
                         (fun vs ->
                           match (cells, vs) with
                           | [ x; y ], [| vx; vy |] ->
                               [ (x, vx - 1); (y, vy + 1) ]
                           | _ -> []));
                    incr n
                  end
                done;
                txns.(tid) <- !n)
          done
      | `Mp ->
          let n_servers =
            max 1 (threads / Ssync_simmp.Client_server.default_server_share)
          in
          let n_clients = max 1 (threads - n_servers) in
          let server_cores =
            Array.init n_servers (fun i -> Platform.place p i)
          in
          let client_cores =
            Array.init n_clients (fun i -> Platform.place p (n_servers + i))
          in
          let t =
            Ssync_tm.Tm_sim.create_mp_based mem p ~n_cells:accounts
              ~server_cores ~client_cores
          in
          for i = 0 to n_servers - 1 do
            Sim.spawn sim ~core:server_cores.(i) (fun () ->
                Ssync_tm.Tm_sim.run_mp_server t i)
          done;
          let b = Sim.make_barrier n_clients in
          for c = 0 to n_clients - 1 do
            Sim.spawn sim ~core:client_cores.(c) (fun () ->
                Sim.await b;
                let rng = Rng.create ~seed:(c + 1) in
                let deadline = Sim.now () + duration in
                let n = ref 0 in
                while Sim.now () < deadline do
                  let a = Rng.int rng accounts and x = Rng.int rng accounts in
                  if a <> x then begin
                    let cells = List.sort_uniq compare [ a; x ] in
                    ignore
                      (Ssync_tm.Tm_sim.transaction_mp t ~client:c ~cells
                         (fun vs ->
                           match (cells, vs) with
                           | [ i; j ], [| vi; vj |] ->
                               [ (i, vi - 1); (j, vj + 1) ]
                           | _ -> []));
                    incr n
                  end
                done;
                txns.(c) <- !n;
                Ssync_tm.Tm_sim.stop_mp t ~client:c)
          done);
      fun _ ->
        Platform.mops p ~ops:(Array.fold_left ( + ) 0 txns) ~cycles:duration)

let extra_stm ?(duration = 150_000) () =
  let contentions = [ ("low (512 accts)", 512); ("high (8 accts)", 8) ] in
  let combos =
    List.concat_map
      (fun pid ->
        List.concat_map
          (fun (label, accounts) ->
            List.concat_map
              (fun threads ->
                [ (pid, label, accounts, threads, `Lock);
                  (pid, label, accounts, threads, `Mp) ])
              [ 1; 6; 18; 36 ])
          contentions)
      [ Arch.Opteron; Arch.Tilera ]
  in
  let jobs, got =
    Section.sweep combos (fun (pid, _, accounts, threads, backend) ->
        stm_throughput pid backend ~threads ~accounts ~duration)
  in
  Section.make ~jobs (fun () ->
      hr
        "Extra (section 8): TM2C bank-transfer throughput (Mtxn/s), \
         lock-based vs message-passing (paper: results mirror the hash table)";
      let t =
        Table.create
          ~aligns:
            [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
          [ "platform"; "contention"; "threads"; "lock"; "mp" ]
      in
      let next = Section.cursor got in
      List.iter
        (fun pid ->
          List.iter
            (fun (label, _) ->
              List.iter
                (fun threads ->
                  let lk = next () in
                  let mp = next () in
                  Table.add_row t
                    [
                      Arch.platform_name pid;
                      label;
                      string_of_int threads;
                      Printf.sprintf "%.2f" lk;
                      Printf.sprintf "%.2f" mp;
                    ])
                [ 1; 6; 18; 36 ])
            contentions)
        [ Arch.Opteron; Arch.Tilera ];
      Table.print t)
