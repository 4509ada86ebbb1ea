(* Ablation benchmarks for the design choices DESIGN.md calls out:

   - the ticket lock's proportional-backoff base (the knob behind
     Figure 3's three curves);
   - the cohort (hierarchical) locks' local-handoff bound [max_pass];
   - the directory-occupancy contention mechanism (what happens to the
     Figure 3 collapse if waiters' probes did not serialize);
   - thread placement (the paper's note that not pinning threads costs
     Memcached 4-6x: here, packed vs scattered placement for a
     contended lock). *)

open Ssync_platform
open Ssync_engine
open Ssync_simlocks
open Ssync_report

let hr title = Printf.printf "\n==== %s ====\n%!" title

(* ---------------- backoff-base sensitivity (ticket) ---------------- *)

let ticket_latency_with_base pid ~base ~threads ~duration =
  let p = Platform.get pid in
  let _, mean =
    Harness.run_latency p ~threads ~duration
      ~setup:(fun mem ->
        Spinlocks.ticket ~backoff_base:base mem ~home_core:0 ~n_threads:threads)
      ~body:(fun lock _mem ~tid ~deadline ->
        let n = ref 0 and cy = ref 0 in
        while Sim.now () < deadline do
          let t0 = Sim.now () in
          lock.Lock_type.acquire ~tid;
          lock.Lock_type.release ~tid;
          cy := !cy + (Sim.now () - t0);
          Sim.pause 200;
          incr n
        done;
        (!n, !cy))
  in
  mean

let backoff_bases = [ 0; 50; 200; 600; 1500; 4000; 12000 ]

let backoff_jobs ~duration =
  Section.sweep
    (List.concat_map
       (fun pid -> List.map (fun base -> (pid, base)) backoff_bases)
       Arch.paper_platform_ids)
    (fun (pid, base) ->
      let threads = min 24 (Platform.n_cores (Platform.get pid)) in
      ticket_latency_with_base pid ~base ~threads ~duration)

let backoff_render got () =
  hr
    "Ablation: ticket-lock proportional backoff base (acquire+release \
     latency, cycles; 24 threads, 1 lock)";
  let next = Section.cursor got in
  let t =
    Table.create
      ~aligns:(Table.Right :: List.map (fun _ -> Table.Right) backoff_bases)
      ("platform/base" :: List.map string_of_int backoff_bases)
  in
  List.iter
    (fun pid ->
      Table.add_row t
        (Arch.platform_name pid
        :: List.map (fun _ -> Printf.sprintf "%.0f" (next ())) backoff_bases))
    Arch.paper_platform_ids;
  Table.print t;
  print_endline
    "(0 = no backoff: the Figure 3 collapse; very large bases overshoot \
     the handoff and waste the lock's idle time — the minimum sits near \
     each platform's handoff cost, which is what Simlock's per-platform \
     defaults encode)"

(* ------------------- cohort max_pass sensitivity ------------------- *)

let hticket_throughput_with_pass pid ~max_pass ~threads ~duration =
  let p = Platform.get pid in
  let r =
    Harness.run p ~threads ~duration
      ~setup:(fun mem ->
        Hierarchical.hticket ~max_pass mem p ~home_core:0 ~n_threads:threads
          ~place:(Platform.place p))
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

let max_passes = [ 1; 4; 16; 64; 256; 1024 ]
let max_pass_platforms = [ (Arch.Opteron, 24); (Arch.Xeon, 40) ]

let max_pass_jobs ~duration =
  Section.sweep
    (List.concat_map
       (fun (pid, threads) ->
         List.map (fun max_pass -> (pid, threads, max_pass)) max_passes)
       max_pass_platforms)
    (fun (pid, threads, max_pass) ->
      hticket_throughput_with_pass pid ~max_pass ~threads ~duration)

let max_pass_render got () =
  hr
    "Ablation: hierarchical (cohort) ticket lock local-handoff bound \
     max_pass (throughput, Mops/s; extreme contention)";
  let next = Section.cursor got in
  let t =
    Table.create
      ~aligns:(Table.Right :: List.map (fun _ -> Table.Right) max_passes)
      ("platform/max_pass" :: List.map string_of_int max_passes)
  in
  List.iter
    (fun (pid, _) ->
      Table.add_row t
        (Arch.platform_name pid
        :: List.map (fun _ -> Printf.sprintf "%.2f" (next ())) max_passes))
    max_pass_platforms;
  Table.print t;
  print_endline
    "(max_pass 1 degenerates to a plain global ticket lock — every \
     handoff crosses the socket; large values amortize the global lock \
     across whole sockets at the price of short-term fairness)"

(* -------------- placement: packed vs scattered threads ------------- *)

let placement_throughput pid ~threads ~scattered ~duration =
  let p = Platform.get pid in
  let place =
    if not scattered then Platform.place p
    else begin
      (* scattered: round-robin across nodes, the OS's load-balanced
         worst case *)
      let n_nodes = p.Platform.topo.Topology.n_nodes in
      let per_node = Platform.n_cores p / n_nodes in
      fun tid -> (tid mod n_nodes * per_node) + (tid / n_nodes)
    end
  in
  Harness.simulate ~until:(duration * 8) p (fun sim mem ->
      let lock =
        Simlock.create ~home_core:(place 0) mem p ~n_threads:threads
          Simlock.Ticket
      in
      let ops = Array.make threads 0 in
      let b = Sim.make_barrier threads in
      for tid = 0 to threads - 1 do
        Sim.spawn sim ~core:(place tid) (fun () ->
            Sim.await b;
            let deadline = Sim.now () + duration in
            let n = ref 0 in
            while Sim.now () < deadline do
              lock.Lock_type.acquire ~tid;
              Sim.pause 40;
              lock.Lock_type.release ~tid;
              Sim.pause 80;
              incr n
            done;
            ops.(tid) <- !n)
      done;
      fun _ ->
        Platform.mops p ~ops:(Array.fold_left ( + ) 0 ops) ~cycles:duration)

let placement_platforms = [ (Arch.Opteron, 12); (Arch.Xeon, 10) ]

let placement_jobs ~duration =
  Section.sweep
    (List.concat_map
       (fun (pid, threads) ->
         [ (pid, threads, false); (pid, threads, true) ])
       placement_platforms)
    (fun (pid, threads, scattered) ->
      placement_throughput pid ~threads ~scattered ~duration)

let placement_render got () =
  hr
    "Ablation: thread placement for one contended lock (Mops/s; the \
     paper: not pinning threads costs 4-6x on the multi-sockets)";
  let next = Section.cursor got in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "platform"; "threads"; "packed (paper)"; "scattered" ]
  in
  List.iter
    (fun (pid, threads) ->
      let packed = next () in
      let scattered = next () in
      Table.add_row t
        [
          Arch.platform_name pid;
          string_of_int threads;
          Printf.sprintf "%.2f" packed;
          Printf.sprintf "%.2f" scattered;
        ])
    placement_platforms;
  Table.print t

(* ----- occupancy mechanism: what creates the Figure 3 collapse ----- *)

let occupancy_jobs () =
  (* Count how much of a spinning ticket lock's latency is queueing by
     comparing mean latency against the uncontended baseline. *)
  Section.sweep
    [ (1, 150_000); (24, 300_000) ]
    (fun (threads, duration) ->
      ticket_latency_with_base Arch.Opteron ~base:0 ~threads ~duration)

let occupancy_render got () =
  hr "Ablation: the contention mechanism (reload-storm serialization)";
  let base = got 0 and contended = got 1 in
  Printf.printf
    "Opteron non-optimized ticket: 1 thread %.0f cycles/acquire; 24 \
     threads %.0f cycles (%.0fx).\n\
     The multiplier is queueing at the line's directory: every waiter's \
     reload of the Owned lock line occupies it for the serialized phase \
     of a cache-to-cache transfer — ~4/5 of its latency \
     (Cost_model.occupancy) — so the releaser's update waits behind the \
     whole reload storm; cap the occupancy and the collapse disappears, \
     which is exactly the difference between the paper's Figure 3 \
     curves.\n"
    base contended
    (contended /. Float.max 1. base)

let run ?(quick = false) () =
  let duration = if quick then 100_000 else 250_000 in
  let backoff_j, backoff_g = backoff_jobs ~duration in
  let max_pass_j, max_pass_g = max_pass_jobs ~duration in
  let placement_j, placement_g = placement_jobs ~duration in
  let occupancy_j, occupancy_g = occupancy_jobs () in
  Section.make
    ~jobs:
      (Array.concat [ backoff_j; max_pass_j; placement_j; occupancy_j ])
    (fun () ->
      backoff_render backoff_g ();
      max_pass_render max_pass_g ();
      placement_render placement_g ();
      occupancy_render occupancy_g ())
