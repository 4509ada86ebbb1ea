(* Virtual-time telemetry: the metrics accumulator's one observable
   contract is that sampling is free of observer effects in every
   direction —

   - byte-identical dumps at any [--jobs] count (per-job sinks, keyed
     by virtual time and stable ids only);
   - successive simulations in one sink land on disjoint epochs: the
     second one's samples sit strictly above the first one's last
     bucket and reproduce the first one's, shifted;
   - zero perturbation: a sampled run computes the identical simulation
     (ops, duration, perf counters) as an unsampled one;
   - the samples are the engine's truth: queued-cycle, park, and wake
     totals reconcile exactly against [Sim.perf];
   - a planted saturation case shows up where it was planted: read
     streams from every node funneled at one link drive its sampled
     busy cycles to >= 90% of a steady-state bucket;
   - the table agrees with a [Map] model over random span, bump and
     new-epoch sequences, at the default grid and at one cycle per
     bucket, and adding to a key already present allocates nothing;
   - a memory accessed outside any run (ccbench's single accesses)
     writes its samples into the sink all the same. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
module Metrics = Ssync_metrics.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_sampling f =
  let saved = !Metrics.requested in
  Metrics.requested := true;
  Fun.protect ~finally:(fun () -> Metrics.requested := saved) f

let dump jobs =
  let b = Buffer.create 4096 in
  Metrics.dump_csv b jobs;
  Buffer.contents b

(* A moderately contended lock workload: spins, parks, coherence
   traffic and interconnect queueing all occur, so every sampled kind
   is exercised. *)
let lock_job () =
  Ssync_ccbench.Lock_bench.throughput ~duration:30_000 Arch.Opteron
    Ssync_simlocks.Simlock.Mcs ~threads:18 ~n_locks:1

(* ------------------------- jobs identity --------------------------- *)

let run_pool ~jobs =
  with_sampling (fun () ->
      let thunks = Array.init 3 (fun _ () -> lock_job ()) in
      let results = Pool.run ~jobs thunks in
      let labels = List.init 3 (fun i -> Printf.sprintf "job/%d" i) in
      (results, List.combine labels (Pool.metrics results)))

let test_jobs_identity () =
  let _, m1 = run_pool ~jobs:1 in
  let _, m4 = run_pool ~jobs:4 in
  check_int "every job got a sink" 3 (List.length m1);
  check_string "dump byte-identical at --jobs 1 vs 4" (dump m1) (dump m4)

(* ------------------------- epoch layout ---------------------------- *)

let samples m =
  let acc = ref [] in
  Metrics.iter_sorted m (fun ~kind ~id ~bucket v ->
      acc := (kind, id, bucket, v) :: !acc);
  List.rev !acc

(* Two identical simulations in one sink: [Memory.create] advances the
   epoch base past everything the first one sampled, so the second
   one's samples never touch the first one's buckets — they are the
   first one's samples shifted by a whole number of buckets. *)
let test_two_sims_one_sink () =
  let sink = Metrics.start () in
  let r1 = lock_job () in
  let first = samples sink in
  let last1 = (Metrics.max_ts sink - 1) / Metrics.grid sink in
  let r2 = lock_job () in
  ignore (Metrics.stop ());
  check_bool "both runs identical" true (r1.Harness.perf = r2.Harness.perf);
  check_bool "first simulation sampled something" true (first <> []);
  let second =
    List.filter (fun s -> not (List.mem s first)) (samples sink)
  in
  List.iter
    (fun (_, _, b, _) ->
      check_bool
        (Printf.sprintf "bucket %d lies above the first sim's last (%d)" b
           last1)
        true (b > last1))
    second;
  let shift = Metrics.base sink / Metrics.grid sink in
  check_bool "second sim = first sim shifted by its epoch" true
    (List.map (fun (k, i, b, v) -> (k, i, b + shift, v)) first = second)

(* ------------------------ no perturbation -------------------------- *)

let test_no_perturbation () =
  let plain = lock_job () in
  let sampled =
    with_sampling (fun () ->
        ignore (Metrics.start ());
        let r = lock_job () in
        ignore (Metrics.stop ());
        r)
  in
  check_bool "ops identical" true (plain.Harness.ops = sampled.Harness.ops);
  check_int "duration identical" plain.Harness.duration
    sampled.Harness.duration;
  check_bool "perf identical" true (plain.Harness.perf = sampled.Harness.perf)

(* ------------------------- reconciliation -------------------------- *)

let test_reconciles_with_perf () =
  let sink = Metrics.start () in
  let r = lock_job () in
  ignore (Metrics.stop ());
  let p = r.Harness.perf in
  let tot k = Metrics.total sink ~kind:k in
  check_bool "workload queues on the interconnect" true
    (p.Sim.link_queued_cycles > 0);
  check_bool "workload parks" true (p.Sim.parks > 0);
  check_int "queued cycles reconcile"
    p.Sim.link_queued_cycles
    (tot Metrics.k_dir_queued + tot Metrics.k_link_queued);
  check_int "parks reconcile" p.Sim.parks (tot Metrics.k_parks);
  check_int "wakes reconcile" p.Sim.wakeups (tot Metrics.k_wakes)

(* ------------------------ planted saturation ----------------------- *)

(* Saturate the Opteron's 0-1 HT link and check the heat shows up
   where it was planted.  The plant exploits the deterministic route:
   every 2-hop requester reaches node 1 through intermediate node 0
   (the first minimal detour in scan order), so reads of node-1-homed
   lines funnel through the 0-1 link from EVERY other node.  One
   reader per remaining core (42 crossing read streams), each on its
   own word that a node-1 writer keeps invalidating, oversubscribes
   the link's 16-cycle holds — its sampled busy cycles must reach
   >= 90% of a steady-state bucket, and it must be the busiest link. *)
let test_planted_saturated_link () =
  let p = Platform.get Arch.Opteron in
  let topo = p.Platform.topo in
  let n = topo.Topology.n_nodes in
  let cores_of node =
    List.filter
      (fun c -> topo.Topology.node_of_core c = node)
      (List.init topo.Topology.n_cores Fun.id)
  in
  let writers = Array.of_list (cores_of 1) in
  let readers =
    Array.of_list
      (List.filter
         (fun c -> topo.Topology.node_of_core c <> 1)
         (List.init topo.Topology.n_cores Fun.id))
  in
  let sink = Metrics.start () in
  let sim = Sim.create p in
  let mem = Sim.memory sim in
  (* long enough that steady state covers whole grid buckets *)
  let deadline = 3 * 65_536 in
  (* One dedicated reader + writer thread per word.  Cores are not a
     simulated resource — a thread blocked in a memory transaction
     does not occupy its core — so pinning several threads to one core
     multiplies the outstanding transactions.  Each word's writer
     stays MOESI owner on node 1, so every reader miss is sourced from
     node 1 across the 0-1 link, while the writer's own stores (owner
     and home both local) book no link at all.  ~72 independent
     crossing streams at a 16-cycle hold per ~650-cycle miss cycle
     oversubscribe the link well past its capacity; the queue feedback
     then keeps it busy essentially every cycle. *)
  let pairs = 72 in
  for i = 0 to pairs - 1 do
    let wc = writers.(i mod Array.length writers) in
    let w = Memory.alloc ~home_core:wc mem in
    let rc = readers.(i mod Array.length readers) in
    (* the pause thins out the local re-read hits without limiting the
       invalidation-driven crossing rate *)
    Sim.spawn sim ~core:rc (fun () ->
        while Sim.now () < deadline do
          ignore (Sim.load w);
          Sim.pause 48
        done);
    Sim.spawn sim ~core:wc (fun () ->
        while Sim.now () < deadline do
          Sim.store w (Sim.now ());
          Sim.pause 32
        done)
  done;
  ignore (Sim.run sim);
  ignore (Metrics.stop ());
  let link01 = (0 * n) + 1 in
  let grid = Metrics.grid sink in
  (* peak steady-state bucket of the planted link *)
  let peak = ref 0 in
  let busiest = ref (-1, 0) in
  Metrics.iter_sorted sink (fun ~kind ~id ~bucket:_ v ->
      if kind = Metrics.k_link_busy then begin
        if id = link01 && v > !peak then peak := v;
        let _, bv = !busiest in
        if v > bv then busiest := (id, v)
      end);
  check_bool
    (Printf.sprintf "planted link >= 90%% busy in its peak bucket (%d/%d)"
       !peak grid)
    true
    (float_of_int !peak >= 0.9 *. float_of_int grid);
  check_int "the busiest sampled link is the planted one" link01
    (fst !busiest)

(* ----------------------------- dumps ------------------------------- *)

let test_dump_formats () =
  let _, jobs = run_pool ~jobs:1 in
  let csv = dump jobs in
  check_bool "csv header" true
    (String.length csv > 0
    && String.sub csv 0 22 = "# ssync metrics v1 buc");
  let b = Buffer.create 4096 in
  Metrics.dump_json b jobs;
  let json = Buffer.contents b in
  check_bool "json opens with the grid" true
    (String.sub json 0 17 = "{\"bucket_cycles\":")

(* ------------------------- table vs model -------------------------- *)

module Key = struct
  type t = int * int * int

  let compare = compare
end

module KM = Map.Make (Key)

(* The reference: a map of (kind, id, bucket) sums, with [span] written
   as per-bucket overlaps rather than the table's first/middle/last
   split. *)
type model = {
  w : int;
  mutable base : int;
  mutable max_ts : int;
  mutable m : int KM.t;
}

let m_add md key v =
  md.m <- KM.update key (function None -> Some v | Some x -> Some (x + v)) md.m

let m_span md ~kind ~id ~t0 ~t1 ~weight =
  if t1 > t0 && weight <> 0 then begin
    let a = md.base + max 0 t0 and b = md.base + max 0 t1 in
    md.max_ts <- max md.max_ts b;
    for bk = a / md.w to (b - 1) / md.w do
      let lo = max a (bk * md.w) and hi = min b ((bk + 1) * md.w) in
      m_add md (kind, id, bk) (weight * (hi - lo))
    done
  end

let m_bump md ~kind ~id ~ts n =
  if n <> 0 then begin
    let a = md.base + max 0 ts in
    md.max_ts <- max md.max_ts (a + 1);
    m_add md (kind, id, a / md.w) n
  end

type op =
  | Span of int * int * int * int * int  (* kind, id, t0, len, weight *)
  | Bump of int * int * int * int  (* kind, id, ts, n *)
  | Epoch

let show_op = function
  | Span (k, i, t0, len, w) -> Printf.sprintf "Span(%d,%d,%d,%d,%d)" k i t0 len w
  | Bump (k, i, ts, n) -> Printf.sprintf "Bump(%d,%d,%d,%d)" k i ts n
  | Epoch -> "Epoch"

(* [max_t] bounds timestamps and [max_len] span lengths: at one cycle
   per bucket, short spans over a wide range give few keys per span but
   large bucket indices. *)
let gen_ops ~max_t ~max_len =
  QCheck.Gen.(
    let kind = int_range 0 (Metrics.n_kinds + 1) in
    let id = int_range (-2) 40 and ts = int_range (-50) max_t in
    list_size (int_range 1 300)
      (frequency
         [
           ( 8,
             map3
               (fun (k, i) t0 (len, w) -> Span (k, i, t0, len, w))
               (pair kind id) ts
               (pair (int_range (-5) max_len) (int_range (-3) 6)) );
           ( 5,
             map3
               (fun (k, i) ts n -> Bump (k, i, ts, n))
               (pair kind id) ts (int_range (-3) 5) );
           (1, return Epoch);
         ]))

let samples_of m =
  let acc = ref [] in
  Metrics.iter_sorted m (fun ~kind ~id ~bucket v ->
      acc := ((kind, id, bucket), v) :: !acc);
  List.rev !acc

let run_ops ops =
  let t = Metrics.create () in
  let md =
    { w = !Metrics.bucket_cycles; base = 0; max_ts = 0; m = KM.empty }
  in
  List.iter
    (function
      | Span (kind, id, t0, len, weight) ->
          Metrics.span t ~kind ~id ~t0 ~t1:(t0 + len) ~weight;
          m_span md ~kind ~id ~t0 ~t1:(t0 + len) ~weight
      | Bump (kind, id, ts, n) ->
          Metrics.bump t ~kind ~id ~ts n;
          m_bump md ~kind ~id ~ts n
      | Epoch ->
          Metrics.new_epoch t;
          if md.max_ts > md.base then
            md.base <- ((md.max_ts / md.w) + 1) * md.w)
    ops;
  (t, md)

let agrees (t, md) =
  let kinds = List.init (Metrics.n_kinds + 3) (fun k -> k - 1) in
  samples_of t = KM.bindings md.m
  && Metrics.max_ts t = md.max_ts
  && Metrics.base t = md.base
  && List.for_all
       (fun kind ->
         Metrics.total t ~kind
         = KM.fold (fun (k, _, _) v a -> if k = kind then a + v else a) md.m 0
         && List.for_all
              (fun id ->
                Metrics.total_id t ~kind ~id
                = KM.fold
                    (fun (k, i, _) v a ->
                      if k = kind && i = id then a + v else a)
                    md.m 0)
              [ -2; -1; 0; 1; 7; 40; 41 ])
       kinds

let model_test ~name ~grid ~max_t ~max_len =
  QCheck.Test.make ~count:200 ~name
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       (gen_ops ~max_t ~max_len))
    (fun ops ->
      let saved = !Metrics.bucket_cycles in
      Metrics.bucket_cycles := grid;
      Fun.protect
        ~finally:(fun () -> Metrics.bucket_cycles := saved)
        (fun () -> agrees (run_ops ops)))

let qcheck_model_default_grid =
  model_test ~name:"table = Map model (default grid)" ~grid:65536
    ~max_t:2_000_000 ~max_len:400_000

let qcheck_model_unit_grid =
  model_test ~name:"table = Map model (1-cycle buckets)" ~grid:1
    ~max_t:(1 lsl 40) ~max_len:40

let test_negative_kind_rejected () =
  let m = Metrics.create () in
  Metrics.bump m ~kind:0 ~id:0 ~ts:0 1;
  Alcotest.check_raises "span" (Invalid_argument "Metrics: negative kind")
    (fun () -> Metrics.span m ~kind:(-1) ~id:0 ~t0:0 ~t1:10 ~weight:1);
  Alcotest.check_raises "bump" (Invalid_argument "Metrics: negative kind")
    (fun () -> Metrics.bump m ~kind:(-1) ~id:0 ~ts:0 1);
  check_bool "nothing recorded" true (samples_of m = [ ((0, 0, 0), 1) ])

(* The hooks run on every sampled access: once a key is present, adding
   to it allocates nothing. *)
let test_add_allocation_free () =
  let m = Metrics.create () in
  let n = 10_000 in
  let call i =
    if i land 1 = 0 then
      Metrics.span m ~kind:(i land 7) ~id:(i land 31) ~t0:(i land 1023)
        ~t1:(200_000 + (i land 1023)) ~weight:2
    else
      Metrics.bump m ~kind:Metrics.k_parks ~id:(i land 31) ~ts:(i land 4095) 1
  in
  for i = 0 to n - 1 do
    call i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    call i
  done;
  check_int "10k span/bump on present keys: minor words" 0
    (int_of_float (Gc.minor_words () -. w0))

(* ccbench's Table 2 cells access a [Memory] directly and never run
   the engine: the two accesses of the Opteron remote-directory load
   must still reach the sink, as their trace events reach the trace. *)
let test_access_without_run_sampled () =
  let sink = Metrics.start () in
  ignore (Ssync_ccbench.Ccbench.opteron_remote_directory_load ());
  ignore (Metrics.stop ());
  check_bool "line occupancy sampled" true
    (Metrics.total sink ~kind:Metrics.k_line_occ > 0);
  check_bool "directory busy cycles sampled" true
    (Metrics.total sink ~kind:Metrics.k_dir_busy > 0)

let suite =
  [
    Alcotest.test_case "dump identical across --jobs" `Quick
      test_jobs_identity;
    Alcotest.test_case "two sims in one sink: disjoint epochs" `Quick
      test_two_sims_one_sink;
    Alcotest.test_case "sampling perturbs nothing" `Quick
      test_no_perturbation;
    Alcotest.test_case "samples reconcile with Sim.perf" `Quick
      test_reconciles_with_perf;
    Alcotest.test_case "planted saturated link shows up" `Quick
      test_planted_saturated_link;
    Alcotest.test_case "dump formats" `Quick test_dump_formats;
    QCheck_alcotest.to_alcotest qcheck_model_default_grid;
    QCheck_alcotest.to_alcotest qcheck_model_unit_grid;
    Alcotest.test_case "negative kind rejected" `Quick
      test_negative_kind_rejected;
    Alcotest.test_case "adding to a present key allocates nothing" `Quick
      test_add_allocation_free;
    Alcotest.test_case "accesses outside a run are sampled" `Quick
      test_access_without_run_sampled;
  ]
