(* [heatmap] subcommand: render the engine's sampled virtual-time
   telemetry as ASCII heatmaps.

   One saturating job per paper platform: every core hammers a single
   word homed on the last core's node, so the traffic converges on one
   home directory and the links toward it — exactly the asymmetric
   pressure the utilization heatmaps exist to make visible at a
   glance.  Each job runs with a fresh metrics sink
   ([Section.observe]), and every render below is a pure function of
   the sampled grids, so stdout is byte-identical at any --jobs
   count.

   The closing reconciliation proves the samples are the engine's own
   truth rather than a parallel bookkeeping free to drift: the summed
   queued-cycle samples must equal [Sim.perf.link_queued_cycles]
   (which sums [Stats.link_queued_cycles]) and the park/wake counters
   must equal [Sim.perf.parks]/[wakeups] exactly.  Exits 1 on any
   drift, or when a job ends with a stalled thread. *)

open Ssync_platform
module Memory = Ssync_coherence.Memory
module Sim = Ssync_engine.Sim
module Harness = Ssync_engine.Harness
module Pool = Ssync_engine.Pool
module Metrics = Ssync_metrics.Metrics
module Heatmap = Ssync_report.Heatmap
module Simlock = Ssync_simlocks.Simlock
module Lock_type = Ssync_simlocks.Lock_type

(* The workload: thread [t] alternates increments of word [t] and word
   [t + threads/2 mod threads], every word homed on the last core's
   node.  Each line therefore ping-pongs between two far-apart cores —
   so the traffic keeps leaving the node — while the lines stay
   distinct — so the transfers pipeline into the home directory and
   the links toward it until the finite bandwidth itself queues.  The
   rest of the fabric stays visibly idle for contrast.  A private
   local word is touched in between.  Every 16th iteration the two
   threads of a pair also take their MCS lock, homed with the hot
   words: the later one spins on its queue node and parks, so the
   "threads parked" strip and the park/wake reconciliation below see
   the engine's park hooks, while a lock per pair keeps the pressure
   on the interconnect (one lock for all threads convoys them).  Each
   acquisition is released, so no thread waits past the deadline. *)
let job (p : Platform.t) ~duration =
  let threads = Platform.n_cores p in
  Harness.run p ~threads ~duration
    ~setup:(fun mem ->
      let hot =
        Array.init threads (fun _ ->
            Memory.alloc ~home_core:(threads - 1) mem)
      in
      let locals =
        Array.init threads (fun t ->
            Memory.alloc ~home_core:(Platform.place p t) mem)
      in
      let locks =
        Array.init (threads / 2) (fun _ ->
            Simlock.create ~home_core:(threads - 1) mem p ~n_threads:threads
              Simlock.Mcs)
      in
      (hot, locals, locks))
    ~body:(fun (hot, locals, locks) _mem ~tid ~deadline ->
      let own = hot.(tid)
      and far = hot.((tid + (Array.length hot / 2)) mod Array.length hot)
      and mine = locals.(tid)
      and lock = locks.(tid mod Array.length locks) in
      let n = ref 0 in
      while Sim.now () < deadline do
        ignore (Sim.fai own);
        ignore (Sim.fai far);
        ignore (Sim.load mine);
        if !n land 15 = 15 then begin
          lock.Lock_type.acquire ~tid;
          lock.Lock_type.release ~tid
        end;
        incr n
      done;
      !n)

(* Sum a kind's samples per id across all buckets. *)
let by_id m ~kind =
  let tbl = Hashtbl.create 64 in
  Metrics.iter_sorted m (fun ~kind:k ~id ~bucket:_ v ->
      if k = kind then
        match Hashtbl.find_opt tbl id with
        | Some r -> r := !r + v
        | None -> Hashtbl.add tbl id (ref v));
  tbl

let get tbl id = match Hashtbl.find_opt tbl id with Some r -> !r | None -> 0

(* One id's per-bucket series for a kind. *)
let series m ~kind ~id ~n_buckets =
  let a = Array.make n_buckets 0 in
  Metrics.iter_sorted m (fun ~kind:k ~id:i ~bucket v ->
      if k = kind && i = id && bucket < n_buckets then
        a.(bucket) <- a.(bucket) + v);
  a

(* Ids of a kind sorted hottest-first, ties to the lowest id so the
   report never depends on hash order. *)
let ranked tbl =
  Hashtbl.fold (fun id v acc -> (id, !v) :: acc) tbl []
  |> List.sort (fun (i1, v1) (i2, v2) -> compare (-v1, i1) (-v2, i2))

let render (p : Platform.t) (r : Harness.result) (m : Metrics.t) =
  let topo = p.Platform.topo in
  let n = topo.Topology.n_nodes in
  let fin = max 1 (Metrics.max_ts m) in
  let grid = Metrics.grid m in
  let n_buckets = (fin / grid) + 1 in
  Printf.printf
    "\n== %s — %d threads, %d ops, %d virtual cycles on a %d-cycle grid ==\n"
    p.Platform.name r.Harness.threads r.Harness.total_ops fin grid;
  let frac v = float_of_int v /. float_of_int fin in
  if Cost_model.has_resources topo then begin
    let dir = by_id m ~kind:Metrics.k_dir_busy in
    let lnk = by_id m ~kind:Metrics.k_link_busy in
    let link_of i j = (min i j * n) + max i j in
    if n <= 8 then
      print_string
        (Heatmap.matrix
           ~title:
             "interconnect utilization by node pair (diagonal: home \
              directory busy, off-diagonal: link busy)"
           (Array.init n (fun i ->
                Array.init n (fun j ->
                    if i = j then frac (get dir i)
                    else frac (get lnk (link_of i j))))))
    else begin
      (* mesh: 36 node-pair rows would dwarf a terminal; show the tile
         grid instead — per-tile directory busy, then each tile's
         incident-link pressure *)
      let dim = Topology.tilera_dim in
      print_string
        (Heatmap.matrix ~title:"home-directory utilization by tile"
           (Array.init dim (fun y ->
                Array.init dim (fun x -> frac (get dir ((y * dim) + x))))));
      let pressure t =
        Hashtbl.fold
          (fun id v acc ->
            if id / n = t || id mod n = t then acc + !v else acc)
          lnk 0
      in
      let lmax = ref 1 in
      for t = 0 to n - 1 do
        lmax := max !lmax (pressure t)
      done;
      print_string
        (Heatmap.matrix
           ~title:
             "mesh-link pressure by tile (relative: brightest tile has \
              the most incident-link busy cycles)"
           (Array.init dim (fun y ->
                Array.init dim (fun x ->
                    float_of_int (pressure ((y * dim) + x))
                    /. float_of_int !lmax))))
    end;
    (* queueing is unbounded (cycles spent waiting, not a fraction of
       anything), so its heat is relative to the worst cell *)
    let dq = by_id m ~kind:Metrics.k_dir_queued in
    let lq = by_id m ~kind:Metrics.k_link_queued in
    let qcell i j = if i = j then get dq i else get lq (link_of i j) in
    let qmax = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        qmax := max !qmax (qcell i j)
      done
    done;
    if !qmax > 0 && n <= 8 then
      print_string
        (Heatmap.matrix
           ~title:
             (Printf.sprintf
                "wait-cycle attribution by node pair (relative: brightest \
                 cell = %d queued cycles)"
                !qmax)
           (Array.init n (fun i ->
                Array.init n (fun j ->
                    float_of_int (qcell i j) /. float_of_int !qmax))));
    (* the busiest link over time *)
    match ranked lnk with
    | (id, v) :: _ when v > 0 ->
        let s = series m ~kind:Metrics.k_link_busy ~id ~n_buckets in
        Printf.printf "%s\n"
          (Heatmap.timeline
             ~label:(Printf.sprintf "link %d-%d busy " (id / n) (id mod n))
             (Array.map (fun c -> float_of_int c /. float_of_int grid) s))
    | _ -> ()
  end
  else
    Printf.printf
      "(no finite interconnect resources modeled: uniform crossbar, \
       address-banked LLC)\n";
  (* thread run-state strips: fraction of the thread population in each
     state per bucket *)
  let threads = r.Harness.threads in
  let strip kind label =
    let s = series m ~kind ~id:0 ~n_buckets in
    Printf.printf "%s\n"
      (Heatmap.timeline ~label
         (Array.map
            (fun c -> float_of_int c /. float_of_int (grid * threads))
            s))
  in
  strip Metrics.k_runnable "threads runnable";
  strip Metrics.k_spinning "threads spinning";
  strip Metrics.k_parked "threads parked  ";
  (* hottest cache lines by sampled occupancy; sharer-weighted cycles
     over the whole span give the line's average cache footprint *)
  let sh = by_id m ~kind:Metrics.k_line_sharers in
  List.iteri
    (fun i (id, v) ->
      if i < 3 && v > 0 then
        Printf.printf
          "line %-4d occupied %9d cy (%4.1f%%), mean sharers %.2f\n" id v
          (100. *. frac v)
          (frac (get sh id)))
    (ranked (by_id m ~kind:Metrics.k_line_occ))

let run ~quick ~jobs () =
  let duration = if quick then 50_000 else 150_000 in
  let platforms = Platform.all in
  let thunks =
    Array.of_list
      (List.map
         (fun p ->
           (* a finer grid than the dump default: these windows are
              short and the strips should resolve the barrier ramp and
              the steady state *)
           Section.observe ~metrics:true ~grid:4096 (fun () ->
               job p ~duration))
         platforms)
  in
  let t0 = Unix.gettimeofday () in
  let results = Pool.run ~jobs thunks in
  let sinks = Array.map (fun (o, _) -> Option.get o.Section.metrics) results in
  Printf.printf
    "Virtual-time utilization heatmaps — every core hammering one word \
     homed on the last node (%d-cycle window)\n%s\n"
    duration Heatmap.legend;
  List.iteri
    (fun i p -> render p (fst results.(i)).Section.value sinks.(i))
    platforms;
  Printf.eprintf "\n(heatmap wall time: %.1fs, %d jobs)\n"
    (Unix.gettimeofday () -. t0)
    jobs;
  let tot k =
    Array.fold_left (fun a m -> a + Metrics.total m ~kind:k) 0 sinks
  in
  let p = (Pool.total_stats results).Pool.perf in
  (* the samples must be the engine's truth, not a parallel count *)
  let ok = ref true in
  let check name sampled engine =
    if sampled = engine then
      Printf.printf "reconcile %-13s %12d  OK\n" name sampled
    else begin
      Printf.printf "reconcile %-13s metrics %d vs Sim.perf %d  MISMATCH\n"
        name sampled engine;
      ok := false
    end
  in
  Printf.printf "\n";
  check "queued cycles"
    (tot Metrics.k_dir_queued + tot Metrics.k_link_queued)
    p.Sim.link_queued_cycles;
  check "parks" (tot Metrics.k_parks) p.Sim.parks;
  check "wakeups" (tot Metrics.k_wakes) p.Sim.wakeups;
  (* the lock waits must not strand a thread *)
  List.iteri
    (fun i (q : Platform.t) ->
      match (fst results.(i)).Section.value.Harness.health.Sim.verdict with
      | Sim.Completed -> ()
      | v ->
          Printf.printf "%s: %s\n" q.Platform.name (Sim.verdict_to_string v);
          ok := false)
    platforms;
  if not !ok then exit 1
