(* Tests of the platform substrate: topologies, distance classes and the
   calibrated cost models (checked against the paper's Tables 2/3). *)

open Ssync_platform

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------- topology ------------------------------ *)

let test_core_counts () =
  check_int "Opteron cores" 48 Topology.opteron.Topology.n_cores;
  check_int "Xeon cores" 80 Topology.xeon.Topology.n_cores;
  check_int "Niagara contexts" 64 Topology.niagara.Topology.n_cores;
  check_int "Tilera tiles" 36 Topology.tilera.Topology.n_cores;
  check_int "Opteron nodes" 8 Topology.opteron.Topology.n_nodes;
  check_int "Xeon sockets" 8 Topology.xeon.Topology.n_nodes

let test_hops_symmetric_and_zero () =
  List.iter
    (fun topo ->
      let n = topo.Topology.n_cores in
      for _ = 1 to 200 do
        let c1 = Random.int n and c2 = Random.int n in
        check_int
          (Printf.sprintf "%s hops sym %d %d" topo.Topology.name c1 c2)
          (Topology.hops topo c1 c2) (Topology.hops topo c2 c1);
        check_int
          (Printf.sprintf "%s hops self %d" topo.Topology.name c1)
          0
          (Topology.hops topo c1 c1)
      done)
    [ Topology.opteron; Topology.xeon; Topology.niagara; Topology.tilera ]

let test_max_distances () =
  (* Paper: max 2 hops on both multi-sockets; 10 on the Tilera mesh. *)
  let max_hops topo =
    let m = ref 0 in
    for c1 = 0 to topo.Topology.n_cores - 1 do
      for c2 = 0 to topo.Topology.n_cores - 1 do
        m := max !m (Topology.hops topo c1 c2)
      done
    done;
    !m
  in
  check_int "Opteron max 2 hops" 2 (max_hops Topology.opteron);
  check_int "Xeon max 2 hops" 2 (max_hops Topology.xeon);
  check_int "Niagara max 1" 1 (max_hops Topology.niagara);
  check_int "Tilera max 10 hops" 10 (max_hops Topology.tilera)

let test_distance_classes () =
  let t = Topology.opteron in
  Alcotest.(check string)
    "same die" "same die"
    (Arch.distance_name (Topology.distance_class t 0 5));
  Alcotest.(check string)
    "same mcm" "same mcm"
    (Arch.distance_name (Topology.distance_class t 0 6));
  Alcotest.(check string)
    "one hop" "one hop"
    (Arch.distance_name (Topology.distance_class t 0 12));
  Alcotest.(check string)
    "two hops" "two hops"
    (Arch.distance_name (Topology.distance_class t 0 18));
  let n = Topology.niagara in
  Alcotest.(check string)
    "niagara same core" "same core"
    (Arch.distance_name (Topology.distance_class n 0 8));
  Alcotest.(check string)
    "niagara other core" "same die"
    (Arch.distance_name (Topology.distance_class n 0 1))

let test_pairs_at_distance () =
  List.iter
    (fun pid ->
      let topo = Topology.of_platform pid in
      List.iter
        (fun d ->
          match Topology.pair_at_distance topo d with
          | None ->
              Alcotest.failf "%s: no pair at %s" topo.Topology.name
                (Arch.distance_name d)
          | Some (a, b) ->
              Alcotest.(check string)
                (Printf.sprintf "%s pair %s classifies back" topo.Topology.name
                   (Arch.distance_name d))
                (Arch.distance_name d)
                (Arch.distance_name (Topology.distance_class topo a b)))
        (Latencies.distance_classes pid))
    Arch.paper_platform_ids

(* ------------------------- cost model ---------------------------- *)

(* Construct the ccbench view: the line was brought into [st] by core
   [holder] (with a second sharer where the state needs one), and is then
   accessed by [requester].  Home is the holder's node: the paper's
   best-case placement. *)
let view_for topo ~holder ?(second = None) (st : Arch.cstate) :
    Cost_model.view =
  let home = topo.Topology.mem_node_of_core holder in
  match st with
  | Arch.Modified | Arch.Exclusive ->
      { state = st; owner = holder; sharers = Coreset.of_list []; home; llc_dirty = false }
  | Arch.Owned ->
      {
        state = st;
        owner = holder;
        sharers = Coreset.of_list (match second with Some s -> [ s ] | None -> []);
        home;
        llc_dirty = false;
      }
  | Arch.Shared ->
      {
        state = Arch.Shared;
        owner = -1;
        sharers =
          Coreset.of_list
            (holder :: (match second with Some s -> [ s ] | None -> []));
        home;
        llc_dirty = false;
      }
  | Arch.Invalid -> { state = st; owner = -1; sharers = Coreset.of_list []; home; llc_dirty = false }

(* Every (platform, op, state, distance) cell the paper reports, with
   the ccbench view [op_latency] is calibrated on and the cell's column
   in its [Latencies] row (its position in [distance_classes]). *)
let paper_cells () =
  List.concat_map
    (fun pid ->
      let topo = Topology.of_platform pid in
      List.concat
        (List.mapi
           (fun col d ->
             match Topology.pair_at_distance topo d with
             | None -> []
             | Some (requester, holder) ->
                 List.concat_map
                   (fun st ->
                     List.filter_map
                       (fun op ->
                         Option.map
                           (fun paper ->
                             (pid, op, st, d, col, paper, requester,
                              view_for topo ~holder st))
                           (Latencies.table2 pid op st d))
                       [ Arch.Load; Arch.Store; Arch.Cas; Arch.Fai; Arch.Tas;
                         Arch.Swap ])
                   (Array.to_list Arch.cstate_of_index))
           (Latencies.distance_classes pid)))
    Arch.paper_platform_ids

let cell_name pid op st d =
  Printf.sprintf "%s %s on %s at %s" (Arch.platform_name pid)
    (Arch.memop_name op) (Arch.cstate_name st) (Arch.distance_name d)

(* [op_latency] reproduces every one of the paper's 189 cells exactly,
   except where an overlay row accounts for the difference: the Opteron
   store on an Exclusive line reads the store-on-Modified row. *)
let test_table2_calibration () =
  let departures = ref [] in
  let cells = paper_cells () in
  List.iter
    (fun (pid, op, st, d, _, paper, requester, v) ->
      let model = Cost_model.op_latency (Topology.of_platform pid) op ~requester v in
      if model <> paper then
        departures :=
          Printf.sprintf "%s: paper %d, model %d" (cell_name pid op st d) paper model
          :: !departures)
    cells;
  check_int "cells the paper reports" 189 (List.length cells);
  let store_m d = Latencies.opteron_store_m.(Latencies.opteron_col d) in
  let opteron_e d =
    Printf.sprintf "%s: paper %d, model %d"
      (cell_name Arch.Opteron Arch.Store Arch.Exclusive d)
      (Option.get (Latencies.table2 Arch.Opteron Arch.Store Arch.Exclusive d))
      (store_m d)
  in
  Alcotest.(check (list string))
    "departures, each from an overlay row"
    [ opteron_e Arch.Same_mcm; opteron_e Arch.Two_hops ]
    (List.rev !departures)

(* [Cost_model] reads the paper's cells from [Latencies], not from a copy:
   1,000 cycles planted in one cell per platform move [op_latency] on
   that cell's view, and the paper lookup, by exactly 1,000. *)
let test_planted_cell () =
  List.iter
    (fun (pid, op, st, d, row) ->
      match
        List.find_opt
          (fun (p, o, s, d', _, _, _, _) -> p = pid && o = op && s = st && d' = d)
          (paper_cells ())
      with
      | None -> Alcotest.failf "%s is not a paper cell" (cell_name pid op st d)
      | Some (_, _, _, _, col, paper, requester, v) ->
          let topo = Topology.of_platform pid in
          let before = Cost_model.op_latency topo op ~requester v in
          row.(col) <- row.(col) + 1000;
          Fun.protect
            ~finally:(fun () -> row.(col) <- row.(col) - 1000)
            (fun () ->
              check_int
                (cell_name pid op st d ^ ": paper lookup")
                (paper + 1000)
                (Option.get (Latencies.table2 pid op st d));
              check_int
                (cell_name pid op st d ^ ": model")
                (before + 1000)
                (Cost_model.op_latency topo op ~requester v)))
    [
      (Arch.Opteron, Arch.Load, Arch.Modified, Arch.Two_hops, Latencies.opteron_load_m);
      (Arch.Xeon, Arch.Store, Arch.Shared, Arch.One_hop, Latencies.xeon_store_s);
      (Arch.Niagara, Arch.Cas, Arch.Modified, Arch.Same_core, Latencies.niagara_cas_m);
      (Arch.Tilera, Arch.Fai, Arch.Shared, Arch.Max_hops, Latencies.tilera_fai_s);
    ]

(* Every overlay row states its reason; the count is pinned so a model
   number or cell choice cannot join or leave the overlay unnoticed. *)
let test_overlay_rows () =
  check_int "overlay rows" 11 (List.length Latencies.overlay);
  List.iter
    (fun (case, _, reason) ->
      if String.trim reason = "" then
        Alcotest.failf "overlay row %S has no reason" case)
    Latencies.overlay

let test_local_hits_cheap () =
  List.iter
    (fun pid ->
      let topo = Topology.of_platform pid in
      let v : Cost_model.view =
        {
          state = Arch.Modified;
          owner = 0;
          sharers = Coreset.of_list [];
          home = topo.Topology.mem_node_of_core 0;
          llc_dirty = false;
        }
      in
      let lat = Cost_model.op_latency topo Arch.Load ~requester:0 v in
      check_bool
        (Printf.sprintf "%s local load <= 5" (Arch.platform_name pid))
        true (lat <= 5))
    Arch.paper_platform_ids

let test_opteron_store_shared_broadcast () =
  (* Section 5.2/5.3: a store on a shared line costs ~3x a store on an
     exclusive line even when all sharers are on the same die. *)
  let topo = Topology.opteron in
  let home = 0 in
  let shared : Cost_model.view =
    { state = Arch.Shared; owner = -1; sharers = Coreset.of_list [ 1; 2 ]; home; llc_dirty = false }
  in
  let excl : Cost_model.view =
    { state = Arch.Exclusive; owner = 1; sharers = Coreset.of_list []; home; llc_dirty = false }
  in
  let s_lat = Cost_model.op_latency topo Arch.Store ~requester:0 shared in
  let e_lat = Cost_model.op_latency topo Arch.Store ~requester:0 excl in
  check_bool "broadcast penalty" true
    (float_of_int s_lat >= 2.5 *. float_of_int e_lat)

let test_xeon_intra_socket_locality () =
  (* Xeon: shared loads within the socket are served by the inclusive
     LLC (44 cycles), 7.5x cheaper than two hops away. *)
  let topo = Topology.xeon in
  let mk holder : Cost_model.view =
    {
      state = Arch.Shared;
      owner = -1;
      sharers = Coreset.of_list [ holder ];
      home = topo.Topology.mem_node_of_core holder;
      llc_dirty = false;
    }
  in
  let local = Cost_model.op_latency topo Arch.Load ~requester:0 (mk 1) in
  let remote = Cost_model.op_latency topo Arch.Load ~requester:0 (mk 30) in
  check_int "intra-socket shared load" 44 local;
  check_bool "cross-socket 7.5x" true
    (float_of_int remote >= 7. *. float_of_int local)

let test_opteron_directory_penalty () =
  (* Section 5.2: when both cores are 2 hops from the directory, a
     2-hop transfer grows from 252 toward ~312 cycles. *)
  let topo = Topology.opteron in
  let best : Cost_model.view =
    { state = Arch.Modified; owner = 18; sharers = Coreset.of_list []; home = 3; llc_dirty = false }
  in
  let worst : Cost_model.view =
    { state = Arch.Modified; owner = 18; sharers = Coreset.of_list []; home = 5; llc_dirty = false }
  in
  (* requester 0 is die 0; owner 18 is die 3; die 5 is 2 hops from die 0 *)
  let b = Cost_model.op_latency topo Arch.Load ~requester:0 best in
  let w = Cost_model.op_latency topo Arch.Load ~requester:0 worst in
  check_int "best case" 252 b;
  check_bool "remote directory costs more" true (w > b && w >= 300 && w <= 330)

let test_niagara_uniformity () =
  (* Stores cost the LLC regardless of sharers and distance. *)
  let topo = Topology.niagara in
  List.iter
    (fun sharers ->
      let v : Cost_model.view =
        { state = Arch.Shared; owner = -1; sharers = Coreset.of_list sharers; home = 0; llc_dirty = false }
      in
      check_int "niagara store" 24
        (Cost_model.op_latency topo Arch.Store ~requester:3 v))
    [ [ 1 ]; [ 1; 2 ]; List.init 40 (fun i -> i + 1) ]

let test_tilera_distance_sensitivity () =
  let topo = Topology.tilera in
  let mk home : Cost_model.view =
    { state = Arch.Modified; owner = home; sharers = Coreset.of_list []; home; llc_dirty = false }
  in
  let near = Cost_model.op_latency topo Arch.Load ~requester:0 (mk 1) in
  let far = Cost_model.op_latency topo Arch.Load ~requester:0 (mk 35) in
  check_int "one hop" 45 near;
  check_int "max hops" 65 far

let test_small_platform_ratios () =
  (* Section 8: cross-socket ~1.6x (Opteron2) and ~2.7x (Xeon2) the
     intra-socket latency. *)
  List.iter
    (fun (pid, ratio) ->
      let topo = Topology.of_platform pid in
      let cross_core = topo.Topology.n_cores - 1 in
      let mk holder : Cost_model.view =
        {
          state = Arch.Modified;
          owner = holder;
          sharers = Coreset.of_list [];
          home = topo.Topology.mem_node_of_core holder;
          llc_dirty = false;
        }
      in
      let intra = Cost_model.op_latency topo Arch.Load ~requester:0 (mk 1) in
      let cross =
        Cost_model.op_latency topo Arch.Load ~requester:0 (mk cross_core)
      in
      let measured = float_of_int cross /. float_of_int intra in
      check_bool
        (Printf.sprintf "%s ratio %.2f ~ %.1f" (Arch.platform_name pid)
           measured ratio)
        true
        (Float.abs (measured -. ratio) < 0.3))
    [ (Arch.Opteron2, 1.6); (Arch.Xeon2, 2.7) ]

let test_table3_known_values () =
  check_int "Opteron LLC" 40
    (Option.get (Latencies.table3 Arch.Opteron Arch.LLC));
  check_int "Xeon LLC" 44 (Option.get (Latencies.table3 Arch.Xeon Arch.LLC));
  check_int "Niagara RAM" 176
    (Option.get (Latencies.table3 Arch.Niagara Arch.RAM));
  check_bool "Niagara has no L2 entry" true
    (Latencies.table3 Arch.Niagara Arch.L2 = None)

let test_platform_mops () =
  (* 1 op per 95 cycles at 2.1 GHz is ~22 Mops/s. *)
  let m = Platform.mops Platform.opteron ~ops:1 ~cycles:95 in
  check_bool "mops conversion" true (Float.abs (m -. 22.1) < 0.2)

let test_occupancy_bounds () =
  List.iter
    (fun p ->
      List.iter
        (fun op ->
          let occ =
            Cost_model.occupancy p.Platform.topo op ~state:Arch.Modified
              ~latency:100
          in
          check_bool
            (Printf.sprintf "%s %s occupancy in (0;latency]" p.Platform.name
               (Arch.memop_name op))
            true
            (occ > 0 && occ <= 100))
        [ Arch.Load; Arch.Store; Arch.Cas; Arch.Fai; Arch.Tas; Arch.Swap ])
    Platform.all

(* qcheck: cost model total latency is positive and bounded for random
   views. *)
let qcheck_latency_positive =
  let gen =
    QCheck.Gen.(
      let* pid = oneofl Arch.paper_platform_ids in
      let topo = Topology.of_platform pid in
      let n = topo.Topology.n_cores in
      let* requester = int_range 0 (n - 1) in
      let* holder = int_range 0 (n - 1) in
      let* second = int_range 0 (n - 1) in
      let* st =
        oneofl
          (match pid with
          | Arch.Opteron -> [ Arch.Modified; Arch.Owned; Arch.Exclusive; Arch.Shared; Arch.Invalid ]
          | _ -> [ Arch.Modified; Arch.Exclusive; Arch.Shared; Arch.Invalid ])
      in
      let* op = oneofl [ Arch.Load; Arch.Store; Arch.Cas; Arch.Fai; Arch.Tas; Arch.Swap ] in
      return (pid, requester, holder, second, st, op))
  in
  QCheck.Test.make ~count:2000 ~name:"cost model positive and bounded"
    (QCheck.make gen) (fun (pid, requester, holder, second, st, op) ->
      let topo = Topology.of_platform pid in
      let v =
        view_for topo ~holder
          ~second:(if second <> holder then Some second else None)
          st
      in
      let lat = Cost_model.op_latency topo op ~requester v in
      lat >= 1 && lat < 5000)

(* ------------------------- topology tables ---------------------- *)

let all_topologies = List.map Topology.of_platform Arch.all_platform_ids

(* Every table cell equals the closure it tabulates — including on the
   [{ opteron with ... }] / [{ xeon with ... }] small platforms, which
   must not inherit their parent's tables. *)
let test_tables_match_closures () =
  List.iter
    (fun (t : Topology.t) ->
      let n = t.Topology.n_nodes in
      check_int (t.Topology.name ^ " core table size") t.Topology.n_cores
        (Array.length t.Topology.core_node);
      for c = 0 to t.Topology.n_cores - 1 do
        check_int
          (Printf.sprintf "%s node of core %d" t.Topology.name c)
          (t.Topology.node_of_core c) t.Topology.core_node.(c)
      done;
      check_int (t.Topology.name ^ " pair table size") (n * n)
        (Array.length t.Topology.hops_tab);
      for n1 = 0 to n - 1 do
        for n2 = 0 to n - 1 do
          check_int
            (Printf.sprintf "%s hops %d %d" t.Topology.name n1 n2)
            (t.Topology.node_hops n1 n2)
            t.Topology.hops_tab.((n1 * n) + n2);
          Alcotest.(check string)
            (Printf.sprintf "%s class %d %d" t.Topology.name n1 n2)
            (Arch.distance_name (Topology.classify_nodes t n1 n2))
            (Arch.distance_name t.Topology.class_tab.((n1 * n) + n2))
        done
      done)
    all_topologies

(* The Tilera interpolation rounds in integers; the float formula it
   replaced is the reference. *)
let test_tilera_scale_matches_float () =
  let reference ~at1 ~at10 h =
    let slope = float_of_int (at10 - at1) /. 9. in
    int_of_float
      (Float.round (float_of_int at1 +. (slope *. float_of_int (h - 1))))
  in
  for at1 = 0 to 200 do
    for at10 = at1 to at1 + 100 do
      for h = 1 to 10 do
        if Cost_model.tilera_scale ~at1 ~at10 h <> reference ~at1 ~at10 h then
          Alcotest.failf "tilera_scale %d %d %d" at1 at10 h
      done
    done
  done

(* Naive list-based references for the cost model's bit-scanning
   queries, classifying through the topology closures, not the tables. *)
let ref_class (t : Topology.t) c1 c2 =
  Topology.classify_nodes t (t.Topology.node_of_core c1)
    (t.Topology.node_of_core c2)

let rank = Cost_model.rank_of_class

let ref_source_core t ~requester (v : Cost_model.view) =
  if v.owner >= 0 then v.owner
  else
    (* closest sharer by class; the first (lowest-id) of equals wins *)
    List.fold_left
      (fun best c ->
        if best < 0 || rank (ref_class t requester c) < rank (ref_class t requester best)
        then c
        else best)
      (-1)
      (Coreset.elements v.sharers)

let ref_invalidation_class t ~requester (v : Cost_model.view) base =
  let holders =
    (if v.owner >= 0 then [ v.owner ] else []) @ Coreset.elements v.sharers
  in
  List.fold_left
    (fun worst c ->
      if c = requester then worst
      else
        let d = ref_class t requester c in
        if rank d > rank worst then d else worst)
    base holders

let qcheck_tables_match_references =
  let gen =
    QCheck.Gen.(
      let* pid = oneofl Arch.all_platform_ids in
      let n = (Topology.of_platform pid).Topology.n_cores in
      let* requester = int_range 0 (n - 1) in
      let* other = int_range 0 (n - 1) in
      let* owner = oneof [ return (-1); int_range 0 (n - 1) ] in
      let* sharers = list_size (int_range 0 12) (int_range 0 (n - 1)) in
      let* home = int_range 0 ((Topology.of_platform pid).Topology.n_nodes - 1) in
      let* base =
        oneofl
          [ Arch.Same_core; Arch.Same_die; Arch.Same_mcm; Arch.One_hop;
            Arch.Two_hops; Arch.Max_hops ]
      in
      return (pid, requester, other, owner, sharers, home, base))
  in
  QCheck.Test.make ~count:2000
    ~name:"source/invalidation/distance class match list references"
    (QCheck.make gen)
    (fun (pid, requester, other, owner, sharers, home, base) ->
      let t = Topology.of_platform pid in
      let v : Cost_model.view =
        {
          state = (if owner >= 0 then Arch.Modified else Arch.Shared);
          owner;
          sharers = Coreset.of_list (List.filter (( <> ) owner) sharers);
          home;
          llc_dirty = false;
        }
      in
      Cost_model.source_core t ~requester v = ref_source_core t ~requester v
      && Cost_model.invalidation_class t ~requester v base
         = ref_invalidation_class t ~requester v base
      && Topology.distance_class t requester other
         = Cost_model.class_to_core t ~requester other
      && Topology.distance_class t requester other = ref_class t requester other)

(* [Arch]'s state numbering and [Cost_model]'s rank numbering are each
   the one table their users index by: index and inverse must agree. *)
let test_numberings () =
  Array.iteri
    (fun i st ->
      Alcotest.(check int) (Arch.cstate_name st) i (Arch.cstate_index st))
    Arch.cstate_of_index;
  Array.iteri
    (fun r d ->
      Alcotest.(check int) (Arch.distance_name d) r (Cost_model.rank_of_class d))
    Cost_model.class_of_rank

(* [Coreset]'s bit tricks against the loops they replaced: Kernighan's
   count, one iteration per set bit, and a shift loop for the index of
   a one-bit word. *)
let loop_popcount w =
  let n = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr n
  done;
  !n

let loop_bit_index b =
  let i = ref 0 and b = ref b in
  while !b <> 1 do
    b := !b lsr 1;
    incr i
  done;
  !i

(* [bit_index] of every one-bit word (bits 0-62: the sign bit too), and
   the set bit of a one-core set in either word for cores 0-125;
   [popcount] and [cardinal] on 0, -1, [min_int], [max_int] and 10^5
   random words, negative ones included. *)
let test_coreset_bits () =
  for i = 0 to 62 do
    let b = 1 lsl i in
    check_int (Printf.sprintf "bit_index (1 lsl %d)" i) (loop_bit_index b)
      (Coreset.bit_index b)
  done;
  for c = 0 to Coreset.capacity - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "core %d round-trips" c)
      [ c ]
      (Coreset.elements (Coreset.of_list [ c ]))
  done;
  let rng = Random.State.make [| 27 |] in
  let words =
    [ 0; -1; min_int; max_int ]
    @ List.init 100_000 (fun _ -> Int64.to_int (Random.State.bits64 rng))
  in
  check_bool "some random words are negative" true
    (List.exists (( > ) 0) words);
  let first_miss f =
    List.find_opt
      (fun (w0, w1) -> f w0 w1)
      (List.combine words (List.rev words))
  in
  Alcotest.(check (option (pair int int)))
    "popcount = loop" None
    (first_miss (fun w _ -> Coreset.popcount w <> loop_popcount w));
  Alcotest.(check (option (pair int int)))
    "cardinal = loops" None
    (first_miss (fun w0 w1 ->
         Coreset.cardinal { Coreset.w0; w1 }
         <> loop_popcount w0 + loop_popcount w1))

let suite =
  [
    Alcotest.test_case "core counts" `Quick test_core_counts;
    Alcotest.test_case "hops symmetric, zero on self" `Quick
      test_hops_symmetric_and_zero;
    Alcotest.test_case "max distances" `Quick test_max_distances;
    Alcotest.test_case "distance classes" `Quick test_distance_classes;
    Alcotest.test_case "pairs at distance" `Quick test_pairs_at_distance;
    Alcotest.test_case "Table 2 calibration" `Quick test_table2_calibration;
    Alcotest.test_case "local hits are cheap" `Quick test_local_hits_cheap;
    Alcotest.test_case "Opteron store-on-shared broadcast" `Quick
      test_opteron_store_shared_broadcast;
    Alcotest.test_case "Xeon intra-socket locality" `Quick
      test_xeon_intra_socket_locality;
    Alcotest.test_case "Opteron remote-directory penalty" `Quick
      test_opteron_directory_penalty;
    Alcotest.test_case "Niagara uniformity" `Quick test_niagara_uniformity;
    Alcotest.test_case "Tilera distance sensitivity" `Quick
      test_tilera_distance_sensitivity;
    Alcotest.test_case "small-platform ratios (section 8)" `Quick
      test_small_platform_ratios;
    Alcotest.test_case "Table 3 values" `Quick test_table3_known_values;
    Alcotest.test_case "Mops conversion" `Quick test_platform_mops;
    Alcotest.test_case "occupancy bounds" `Quick test_occupancy_bounds;
    QCheck_alcotest.to_alcotest qcheck_latency_positive;
    Alcotest.test_case "topology tables match closures" `Quick
      test_tables_match_closures;
    QCheck_alcotest.to_alcotest qcheck_tables_match_references;
    Alcotest.test_case "Tilera integer interpolation" `Quick
      test_tilera_scale_matches_float;
    Alcotest.test_case "state and rank numberings round-trip" `Quick
      test_numberings;
    Alcotest.test_case "coreset bit tricks = loops" `Quick test_coreset_bits;
    Alcotest.test_case "planted paper cell moves the model" `Quick
      test_planted_cell;
    Alcotest.test_case "overlay rows have reasons" `Quick test_overlay_rows;
  ]
