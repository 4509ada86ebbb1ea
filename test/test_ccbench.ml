(* Tests of the microbenchmark layer: ccbench reproduces Table 2 through
   real protocol transitions, and the atomic/lock benches reproduce the
   paper's qualitative shapes. *)

open Ssync_platform
open Ssync_ccbench

let check_bool = Alcotest.(check bool)

(* ccbench's measured Table 2 (force_state + access, unlike the
   cost-model unit test) equals every one of the paper's 189 cells,
   except 12 departures, each accounted for: the Opteron store on an
   Exclusive line reads the store-on-Modified row (an overlay row), and
   the Tilera's Shared stores and atomics pay
   [Cost_model.tilera_invalidation_growth] for ccbench's second
   sharer. *)
let test_ccbench_table2 () =
  let departures = ref [] and reported = ref 0 in
  let line pid op st d paper measured =
    Printf.sprintf "%s %s on %s at %s: paper %d, ccbench %d"
      (Arch.platform_name pid) (Arch.memop_name op) (Arch.cstate_name st)
      (Arch.distance_name d) paper measured
  in
  List.iter
    (fun pid ->
      List.iter
        (fun (c : Ccbench.cell) ->
          match c.Ccbench.paper with
          | None -> ()
          | Some paper ->
              incr reported;
              if c.Ccbench.measured <> paper then
                departures :=
                  line pid c.Ccbench.op c.Ccbench.state c.Ccbench.distance paper
                    c.Ccbench.measured
                  :: !departures)
        (Ccbench.table2 pid))
    Arch.paper_platform_ids;
  Alcotest.(check int) "cells the paper reports" 189 !reported;
  let expect pid op st d measured =
    line pid op st d (Option.get (Latencies.table2 pid op st d)) measured
  in
  let opteron_e d =
    expect Arch.Opteron Arch.Store Arch.Exclusive d
      Latencies.opteron_store_m.(Latencies.opteron_col d)
  in
  let two_sharers : Cost_model.view =
    { state = Arch.Shared; owner = -1; sharers = Coreset.of_list [ 0; 1 ];
      home = 0; llc_dirty = false }
  in
  let tilera_s op d =
    expect Arch.Tilera op Arch.Shared d
      (Option.get (Latencies.table2 Arch.Tilera op Arch.Shared d)
      + Cost_model.tilera_invalidation_growth two_sharers)
  in
  Alcotest.(check (list string))
    "departures, each accounted for"
    ([ opteron_e Arch.Same_mcm; opteron_e Arch.Two_hops ]
    @ List.concat_map
        (fun op -> [ tilera_s op Arch.One_hop; tilera_s op Arch.Max_hops ])
        [ Arch.Store; Arch.Cas; Arch.Fai; Arch.Tas; Arch.Swap ])
    (List.rev !departures)

let test_opteron_worst_case_directory () =
  let lat = Ccbench.opteron_remote_directory_load () in
  (* section 5.2: ~312 cycles when both cores are 2 hops from the
     directory *)
  check_bool (Printf.sprintf "remote-directory load %d ~ 312" lat) true
    (lat >= 280 && lat <= 340)

let test_figure4_multi_socket_collapse () =
  (* Multi-sockets: fast single-thread, collapse at 2+, further drop
     across sockets.  Single-sockets: slower single-thread, plateau. *)
  let fai pid threads =
    (Atomic_bench.throughput ~duration:200_000 pid Atomic_bench.Op_fai
       ~threads)
      .Ssync_engine.Harness.mops
  in
  let o1 = fai Arch.Opteron 1 in
  let o6 = fai Arch.Opteron 6 in
  let o12 = fai Arch.Opteron 12 in
  check_bool
    (Printf.sprintf "Opteron collapse: 1t %.1f >> 6t %.1f" o1 o6)
    true
    (o1 > 3. *. o6);
  check_bool
    (Printf.sprintf "Opteron cross-die drop: 6t %.1f >= 12t %.1f" o6 o12)
    true
    (o6 >= o12 *. 0.9);
  let tas pid threads =
    (Atomic_bench.throughput ~duration:200_000 pid Atomic_bench.Op_tas
       ~threads)
      .Ssync_engine.Harness.mops
  in
  let n1 = tas Arch.Niagara 1 in
  let n16 = tas Arch.Niagara 16 in
  let n32 = tas Arch.Niagara 32 in
  check_bool
    (Printf.sprintf "Niagara rises: 1t %.1f < 16t %.1f" n1 n16)
    true (n16 > n1);
  check_bool
    (Printf.sprintf "Niagara plateau: 16t %.1f ~ 32t %.1f" n16 n32)
    true
    (n32 > 0.6 *. n16);
  (* section 5.4: the hardware TAS is the efficient Niagara atomic; the
     CAS-based FAI is much slower under contention *)
  let nfai = fai Arch.Niagara 16 in
  check_bool
    (Printf.sprintf "Niagara TAS (%.1f) > CAS-based FAI (%.1f)" n16 nfai)
    true (n16 > nfai)

(* F4: a CAS that loses keeps its request posted at the line and wins
   the next grant (pending-request arbitration), so its retry is not
   doomed by an expected value one full transfer stale.  The bands lock
   in the arbitration's moderate-contention throughput and the paper's
   extreme-contention collapse shape. *)
let test_figure4_niagara_cas_fai_band () =
  let fai threads =
    (Atomic_bench.throughput ~duration:300_000 Arch.Niagara
       Atomic_bench.Op_cas_fai ~threads)
      .Ssync_engine.Harness.mops
  in
  let t8 = fai 8 and t16 = fai 16 and t64 = fai 64 in
  check_bool
    (Printf.sprintf "8t holds with arbitration (%.2f >= 4.5)" t8)
    true (t8 >= 4.5);
  check_bool
    (Printf.sprintf "16t holds with arbitration (%.2f >= 2.2)" t16)
    true (t16 >= 2.2);
  check_bool
    (Printf.sprintf "64t degrades no harder than the paper (%.2f >= 0.45)" t64)
    true (t64 >= 0.45);
  check_bool
    (Printf.sprintf "extreme contention still collapses (%.2f < %.2f / 4)" t64
       t8)
    true
    (t64 < t8 /. 4.)

let test_figure4_single_thread_fast_on_x86 () =
  let fai pid =
    (Atomic_bench.throughput ~duration:200_000 pid Atomic_bench.Op_fai
       ~threads:1)
      .Ssync_engine.Harness.mops
  in
  let x = fai Arch.Xeon and n = fai Arch.Niagara in
  check_bool
    (Printf.sprintf "Xeon 1t (%.1f) >> Niagara 1t (%.1f)" x n)
    true
    (x > 3. *. n)

let test_figure6_distance_monotonic () =
  (* Uncontested acquisition gets dearer as the previous holder moves
     away, dramatically so on the multi-sockets (up to ~12.5x). *)
  List.iter
    (fun algo ->
      let lat d =
        Option.get (Lock_bench.uncontested_latency Arch.Opteron algo d)
      in
      let near = lat Arch.Same_die and far = lat Arch.Two_hops in
      check_bool
        (Printf.sprintf "%s: far (%.0f) > near (%.0f)"
           (Ssync_simlocks.Simlock.name algo) far near)
        true (far > near))
    [ Ssync_simlocks.Simlock.Tas; Ssync_simlocks.Simlock.Ticket;
      Ssync_simlocks.Simlock.Mcs ]

let test_figure6_single_socket_flat () =
  (* Niagara suffers no degradation as the previous holder moves. *)
  let lat d =
    Option.get
      (Lock_bench.uncontested_latency Arch.Niagara Ssync_simlocks.Simlock.Ticket d)
  in
  let same = lat Arch.Same_core and other = lat Arch.Same_die in
  check_bool
    (Printf.sprintf "niagara flat-ish (%.0f vs %.0f)" same other)
    true
    (other < 2.5 *. Float.max same 1.)

let test_figure5_queue_locks_win_extreme () =
  (* Extreme contention on Opteron: CLH/MCS sustain more than TAS. *)
  let tput algo =
    (Lock_bench.throughput ~duration:300_000 Arch.Opteron algo ~threads:18
       ~n_locks:1)
      .Ssync_engine.Harness.mops
  in
  let clh = tput Ssync_simlocks.Simlock.Clh in
  let tas = tput Ssync_simlocks.Simlock.Tas in
  check_bool
    (Printf.sprintf "CLH (%.2f) >= TAS (%.2f) under extreme contention" clh
       tas)
    true (clh >= tas)

let test_figure7_simple_locks_win_low_contention () =
  (* 512 locks: the ticket lock matches or beats the queue locks. *)
  let tput algo =
    (Lock_bench.throughput ~duration:300_000 Arch.Opteron algo ~threads:18
       ~n_locks:512)
      .Ssync_engine.Harness.mops
  in
  let ticket = tput Ssync_simlocks.Simlock.Ticket in
  let mcs = tput Ssync_simlocks.Simlock.Mcs in
  check_bool
    (Printf.sprintf "TICKET (%.2f) >= 0.9 * MCS (%.2f) at 512 locks" ticket
       mcs)
    true
    (ticket >= 0.9 *. mcs)

let test_best_of_returns_positive () =
  let b = Lock_bench.best_of ~duration:150_000 Arch.Xeon ~threads:10 ~n_locks:16 in
  check_bool "positive throughput" true (b.Lock_bench.mops > 0.);
  check_bool "positive scalability" true (b.Lock_bench.scalability > 0.)

let test_client_server_positive () =
  let t =
    Mp_bench.client_server ~duration:150_000 Arch.Tilera Mp_bench.Round_trip
      ~clients:8
  in
  check_bool (Printf.sprintf "tilera cs throughput %.2f > 0" t) true (t > 0.)

let suite =
  [
    Alcotest.test_case "ccbench reproduces Table 2" `Quick test_ccbench_table2;
    Alcotest.test_case "Opteron worst-case directory (section 5.2)" `Quick
      test_opteron_worst_case_directory;
    Alcotest.test_case "Figure 4 shapes" `Slow test_figure4_multi_socket_collapse;
    Alcotest.test_case "Figure 4: Niagara CAS-FAI arbitration band" `Slow
      test_figure4_niagara_cas_fai_band;
    Alcotest.test_case "Figure 4: x86 single-thread fast" `Slow
      test_figure4_single_thread_fast_on_x86;
    Alcotest.test_case "Figure 6: distance monotonic on Opteron" `Quick
      test_figure6_distance_monotonic;
    Alcotest.test_case "Figure 6: Niagara flat" `Quick
      test_figure6_single_socket_flat;
    Alcotest.test_case "Figure 5: queue locks win extreme contention" `Slow
      test_figure5_queue_locks_win_extreme;
    Alcotest.test_case "Figure 7: simple locks win low contention" `Slow
      test_figure7_simple_locks_win_low_contention;
    Alcotest.test_case "best_of sane" `Slow test_best_of_returns_positive;
    Alcotest.test_case "client-server throughput positive" `Quick
      test_client_server_positive;
  ]
