(* Aggregation passes over recorded traces: per-lock contention
   profiles (acquisition-latency histogram, hold/wait split, handoff
   distance-class matrix mirroring Table 2's same-die/one-hop/two-hops
   structure, fairness), per-cache-line coherence-traffic accounting
   and a MOESI/MESI state-pair transition matrix.

   Locks are merged *by name* across jobs: a figure section that runs
   the same algorithm at eight thread counts profiles as one row per
   algorithm, and the [profile] subcommand's one-job-per-algorithm
   layout profiles each algorithm exactly.  Fairness is per job, since
   thread ids name different threads in different jobs.  Jobs are
   folded in submission order and every table sorts its rows
   explicitly, so the report is deterministic at any [--jobs] count.

   The ring buffer may have dropped early events; [dropped] is carried
   into the summary so a truncated profile is never mistaken for a
   complete one.  (Totals-level reconciliation against [Sim.perf] uses
   [Trace.totals], which never drops.) *)

open Ssync_platform
module Table = Ssync_report.Table

type agg = { mutable cnt : int; mutable cy : int; mutable q : int }

let agg_zero () = { cnt = 0; cy = 0; q = 0 }

let bump a ~cy ~q =
  a.cnt <- a.cnt + 1;
  a.cy <- a.cy + cy;
  a.q <- a.q + q

(* log2 histogram: bucket 0 = wait 0, bucket k >= 1 = [2^(k-1), 2^k) *)
let n_buckets = 32

let bucket_of w =
  if w <= 0 then 0
  else begin
    let b = ref 0 and w = ref w in
    while !w > 0 do
      incr b;
      w := !w lsr 1
    done;
    min !b (n_buckets - 1)
  end

let bucket_label = function
  | 0 -> "0"
  | k -> Printf.sprintf "<%d" (1 lsl k)

type lock_prof = {
  lp_name : string;
  mutable acqs : int;
  mutable first_acqs : int; (* acquisitions with no previous holder *)
  mutable wait_cy : int;
  mutable max_wait : int;
  mutable hold_cy : int;
  mutable rels : int;
  wait_hist : int array;
  handoff : int array; (* by Cost_model.rank_of_class *)
  mutable by_tid : int array;
      (* acquisitions per thread id in the trace last added; -1 for a
         tid that has neither waited on nor acquired the lock *)
  mutable fair : (int * int) option;
      (* the least fair trace's fewest and most acquisitions of one
         thread *)
}

type xfer_key = {
  xk_platform : string;
  xk_op : Arch.memop;
  xk_pre : Arch.cstate;
  xk_dist : Arch.distance;
}

type t = {
  mutable lock_order : string list; (* reversed first-seen order *)
  locks : (string, lock_prof) Hashtbl.t;
  xfers : (xfer_key, agg) Hashtbl.t;
  trans : int array array;
      (* pre-state x post-state transfer counts, by [Arch.cstate_index] *)
  lines : (int, agg) Hashtbl.t; (* per-address traffic *)
  rq_link : int array; (* resource-queued cycles behind links, by rank *)
  rq_dir : int array; (* same, behind home directories *)
      (* both fed from [Trace.rq_by_rank]'s drop-proof aggregates, so
         [rq_total] reconciles exactly against
         [Stats.link_queued_cycles] even when the ring truncated *)
  mutable totals : Trace.totals;
  mutable dropped : int;
  mutable n_jobs : int;
}

let totals_zero =
  {
    Trace.t_emitted = 0;
    t_acquires = 0;
    t_releases = 0;
    t_xfers = 0;
    t_xfer_cy = 0;
    t_queued_cy = 0;
    t_local = 0;
    t_local_cy = 0;
    t_elided = 0;
    t_elided_cy = 0;
    t_parks = 0;
    t_wakes = 0;
    t_faults = 0;
    t_sends = 0;
    t_recvs = 0;
  }

let totals_add (a : Trace.totals) (b : Trace.totals) =
  {
    Trace.t_emitted = a.Trace.t_emitted + b.Trace.t_emitted;
    t_acquires = a.t_acquires + b.t_acquires;
    t_releases = a.t_releases + b.t_releases;
    t_xfers = a.t_xfers + b.t_xfers;
    t_xfer_cy = a.t_xfer_cy + b.t_xfer_cy;
    t_queued_cy = a.t_queued_cy + b.t_queued_cy;
    t_local = a.t_local + b.t_local;
    t_local_cy = a.t_local_cy + b.t_local_cy;
    t_elided = a.t_elided + b.t_elided;
    t_elided_cy = a.t_elided_cy + b.t_elided_cy;
    t_parks = a.t_parks + b.t_parks;
    t_wakes = a.t_wakes + b.t_wakes;
    t_faults = a.t_faults + b.t_faults;
    t_sends = a.t_sends + b.t_sends;
    t_recvs = a.t_recvs + b.t_recvs;
  }

let create () =
  {
    lock_order = [];
    locks = Hashtbl.create 16;
    xfers = Hashtbl.create 64;
    trans = Array.make_matrix Arch.n_cstates Arch.n_cstates 0;
    lines = Hashtbl.create 64;
    rq_link = Array.make Cost_model.n_ranks 0;
    rq_dir = Array.make Cost_model.n_ranks 0;
    totals = totals_zero;
    dropped = 0;
    n_jobs = 0;
  }

let lock_prof t name =
  match Hashtbl.find_opt t.locks name with
  | Some lp -> lp
  | None ->
      let lp =
        {
          lp_name = name;
          acqs = 0;
          first_acqs = 0;
          wait_cy = 0;
          max_wait = 0;
          hold_cy = 0;
          rels = 0;
          wait_hist = Array.make n_buckets 0;
          handoff = Array.make Cost_model.n_ranks 0;
          by_tid = [||];
          fair = None;
        }
      in
      Hashtbl.replace t.locks name lp;
      t.lock_order <- name :: t.lock_order;
      lp

(* Count [tid] among the lock's threads, adding [n] acquisitions. *)
let count_tid lp tid n =
  if tid >= 0 then begin
    let len = Array.length lp.by_tid in
    if tid >= len then begin
      let bigger = Array.make (max (tid + 1) (max 8 (2 * len))) (-1) in
      Array.blit lp.by_tid 0 bigger 0 len;
      lp.by_tid <- bigger
    end;
    lp.by_tid.(tid) <- Int.max 0 lp.by_tid.(tid) + n
  end

(* Fewest and most acquisitions of one thread, over the threads that
   waited on or acquired the lock, in the least fair trace: the lowest
   min/max ratio (0 when no thread acquired it), the earliest trace on
   ties. *)
let fairness lp = lp.fair

let ratio (mn, mx) = if mx = 0 then 0. else float_of_int mn /. float_of_int mx

let settle_fairness lp =
  match List.filter (fun c -> c >= 0) (Array.to_list lp.by_tid) with
  | [] -> ()
  | c :: cs -> (
      let f = (List.fold_left min c cs, List.fold_left max c cs) in
      match lp.fair with
      | Some w when ratio w <= ratio f -> ()
      | _ -> lp.fair <- Some f)

let add_trace t (tr : Trace.t) =
  t.n_jobs <- t.n_jobs + 1;
  Hashtbl.iter (fun _ lp -> lp.by_tid <- [||]) t.locks;
  t.totals <- totals_add t.totals (Trace.totals tr);
  t.dropped <- t.dropped + Trace.dropped tr;
  let rql, rqd = Trace.rq_by_rank tr in
  Array.iteri (fun r v -> t.rq_link.(r) <- t.rq_link.(r) + v) rql;
  Array.iteri (fun r v -> t.rq_dir.(r) <- t.rq_dir.(r) + v) rqd;
  let plat = Trace.platform tr and r = Trace.ring tr in
  let lock o = lock_prof t (Trace.lock_name tr r.(o + 3)) in
  Trace.iter_offsets tr (fun o ->
      let h = r.(o + 1) in
      match Trace.kind h with
      | Acq ->
          let lp = lock o and wait = r.(o + 4) in
          lp.acqs <- lp.acqs + 1;
          lp.wait_cy <- lp.wait_cy + wait;
          if wait > lp.max_wait then lp.max_wait <- wait;
          lp.wait_hist.(bucket_of wait) <- lp.wait_hist.(bucket_of wait) + 1;
          let rank = Trace.head_handoff h in
          if rank < 0 then lp.first_acqs <- lp.first_acqs + 1
          else lp.handoff.(rank) <- lp.handoff.(rank) + 1;
          count_tid lp r.(o + 2) 1
      | Wait -> count_tid (lock o) r.(o + 2) 0
      | Rel ->
          let lp = lock o in
          lp.rels <- lp.rels + 1;
          lp.hold_cy <- lp.hold_cy + r.(o + 4)
      | Xfer ->
          let addr = r.(o + 3) and lat = r.(o + 4) and queued = r.(o + 6) in
          let op = Trace.head_op h and pre = Trace.head_pre h in
          let post = Trace.head_post h and dist = Trace.head_dist h in
          let key =
            { xk_platform = plat; xk_op = op; xk_pre = pre; xk_dist = dist }
          in
          let a =
            match Hashtbl.find_opt t.xfers key with
            | Some a -> a
            | None ->
                let a = agg_zero () in
                Hashtbl.replace t.xfers key a;
                a
          in
          bump a ~cy:lat ~q:queued;
          let i = Arch.cstate_index pre and j = Arch.cstate_index post in
          t.trans.(i).(j) <- t.trans.(i).(j) + 1;
          let la =
            match Hashtbl.find_opt t.lines addr with
            | Some a -> a
            | None ->
                let a = agg_zero () in
                Hashtbl.replace t.lines addr a;
                a
          in
          bump la ~cy:lat ~q:queued
      | _ -> ());
  Hashtbl.iter (fun _ lp -> settle_fairness lp) t.locks

let of_traces (trs : Trace.t list) =
  let t = create () in
  List.iter (add_trace t) trs;
  t

let locks_in_order t = List.rev t.lock_order
let mean num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ------------------------------- tables ------------------------------- *)

(* Per-lock contention: acquisition counts, wait/hold split, fairness
   (min/max acquisitions over one job's participating threads, in the
   least fair job) and the handoff
   distance-class distribution — only classes some lock actually used
   get a column, in Table 2's rank order. *)
let lock_table t : Table.t =
  let names = locks_in_order t in
  let used_ranks =
    List.filter
      (fun r ->
        List.exists (fun n -> (Hashtbl.find t.locks n).handoff.(r) > 0) names)
      (List.init Cost_model.n_ranks Fun.id)
  in
  let headers =
    [ "lock"; "acqs"; "wait avg"; "wait max"; "hold avg";
      "fair min/max (worst job)" ]
    @ List.map
        (fun r -> Arch.distance_name Cost_model.class_of_rank.(r))
        used_ranks
  in
  let aligns = Table.Left :: List.map (fun _ -> Table.Right) (List.tl headers) in
  let rows =
    List.map
      (fun n ->
        let lp = Hashtbl.find t.locks n in
        let fair =
          match fairness lp with
          | None -> "-"
          | Some (mn, mx) -> Printf.sprintf "%d/%d" mn mx
        in
        let handoffs = Array.fold_left ( + ) 0 lp.handoff in
        [
          lp.lp_name;
          string_of_int lp.acqs;
          Table.fcell1 (mean lp.wait_cy lp.acqs);
          string_of_int lp.max_wait;
          Table.fcell1 (mean lp.hold_cy lp.rels);
          fair;
        ]
        @ List.map
            (fun r ->
              if handoffs = 0 then "-"
              else
                Printf.sprintf "%.1f%%"
                  (100. *. mean lp.handoff.(r) handoffs))
            used_ranks)
      names
  in
  Table.of_rows ~aligns headers rows

(* Acquisition-latency histogram: log2 buckets as rows, one column per
   lock. *)
let wait_hist_table t : Table.t =
  let names = locks_in_order t in
  let max_bucket =
    List.fold_left
      (fun m n ->
        let h = (Hashtbl.find t.locks n).wait_hist in
        let rec last i = if i < 0 then -1 else if h.(i) > 0 then i else last (i - 1) in
        max m (last (n_buckets - 1)))
      0 names
  in
  let headers = "wait cy" :: names in
  let aligns = Table.Left :: List.map (fun _ -> Table.Right) names in
  let rows =
    List.init (max_bucket + 1) (fun b ->
        bucket_label b
        :: List.map
             (fun n ->
               let c = (Hashtbl.find t.locks n).wait_hist.(b) in
               if c = 0 then "." else string_of_int c)
             names)
  in
  Table.of_rows ~aligns headers rows

let xfer_rows t =
  Hashtbl.fold (fun k a acc -> (k, a) :: acc) t.xfers []
  |> List.sort (fun ((k1 : xfer_key), a1) (k2, a2) ->
         match compare a2.cy a1.cy with
         | 0 ->
             compare
               (k1.xk_platform, Arch.memop_name k1.xk_op,
                Arch.cstate_index k1.xk_pre,
                Cost_model.rank_of_class k1.xk_dist)
               (k2.xk_platform, Arch.memop_name k2.xk_op,
                Arch.cstate_index k2.xk_pre,
                Cost_model.rank_of_class k2.xk_dist)
         | c -> c)

(* Coherence traffic by (platform, op, pre-access state, distance
   class) — the profile's mirror of the paper's Table 2 rows — sorted
   by total cycles so the most expensive traffic reads first. *)
let coherence_table ?(top = 0) t : Table.t =
  let rows = xfer_rows t in
  let rows = if top > 0 && List.length rows > top then List.filteri (fun i _ -> i < top) rows else rows in
  let total_cy = max 1 t.totals.Trace.t_xfer_cy in
  let headers =
    [ "platform"; "op"; "state"; "distance"; "transfers"; "avg cy";
      "avg queued"; "total cy"; "share" ]
  in
  let aligns =
    [ Table.Left; Table.Left; Table.Left; Table.Left; Table.Right;
      Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  Table.of_rows ~aligns headers
    (List.map
       (fun (k, a) ->
         [
           k.xk_platform;
           Arch.memop_name k.xk_op;
           Arch.cstate_name k.xk_pre;
           Arch.distance_name k.xk_dist;
           string_of_int a.cnt;
           Table.fcell1 (mean a.cy a.cnt);
           Table.fcell1 (mean a.q a.cnt);
           string_of_int a.cy;
           Printf.sprintf "%.1f%%" (100. *. mean a.cy total_cy);
         ])
       rows)

(* Transfer counts by (pre, post) protocol state pair.  Only states
   that appear get a row/column. *)
let transitions_table t : Table.t =
  let used i =
    Array.exists (fun r -> r.(i) > 0) t.trans
    || Array.exists (fun c -> c > 0) t.trans.(i)
  in
  let states = List.filter used (List.init Arch.n_cstates Fun.id) in
  let letter i = String.make 1 (Arch.cstate_letter Arch.cstate_of_index.(i)) in
  let headers = "from\\to" :: List.map letter states in
  let aligns = Table.Left :: List.map (fun _ -> Table.Right) states in
  let rows =
    List.filter_map
      (fun i ->
        if Array.exists (fun c -> c > 0) t.trans.(i) then
          Some
            (letter i
            :: List.map
                 (fun j ->
                   if t.trans.(i).(j) = 0 then "." else string_of_int t.trans.(i).(j))
                 states)
        else None)
      states
  in
  Table.of_rows ~aligns headers rows

(* Hottest cache lines by transfer cycles.  Addresses are per-job
   simulated-memory indices; across a merged section they identify the
   same allocation-order line in each job. *)
let lines_table ?(top = 10) t : Table.t =
  let rows =
    Hashtbl.fold (fun a v acc -> (a, v) :: acc) t.lines []
    |> List.sort (fun (a1, v1) (a2, v2) ->
           match compare v2.cy v1.cy with 0 -> compare a1 a2 | c -> c)
  in
  let rows = List.filteri (fun i _ -> i < top) rows in
  let headers = [ "line"; "transfers"; "avg cy"; "total cy" ] in
  let aligns = [ Table.Right; Table.Right; Table.Right; Table.Right ] in
  Table.of_rows ~aligns headers
    (List.map
       (fun (a, v) ->
         [
           string_of_int a;
           string_of_int v.cnt;
           Table.fcell1 (mean v.cy v.cnt);
           string_of_int v.cy;
         ])
       rows)

(* Total resource-queued cycles the profile attributed, for
   reconciliation against [Sim.perf.link_queued_cycles]: both sides sum
   the same per-access [rqueued] charges, so equality is exact. *)
let rq_total t =
  Array.fold_left ( + ) 0 t.rq_link + Array.fold_left ( + ) 0 t.rq_dir

(* Interconnect wait attribution: resource-queued cycles split between
   links and home directories per distance class of the transfer that
   paid them.  Fed from the per-trace aggregates (never the droppable
   ring), so the table's grand total reconciles exactly against the
   finite-bandwidth model's [Stats.link_queued_cycles]. *)
let interconnect_table t : Table.t =
  let used =
    List.filter
      (fun r -> t.rq_link.(r) > 0 || t.rq_dir.(r) > 0)
      (List.init Cost_model.n_ranks Fun.id)
  in
  let total = max 1 (rq_total t) in
  let headers =
    [ "distance"; "link queued cy"; "dir queued cy"; "total"; "share" ]
  in
  let aligns =
    [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  let rows =
    List.map
      (fun r ->
        let l = t.rq_link.(r) and d = t.rq_dir.(r) in
        [
          Arch.distance_name Cost_model.class_of_rank.(r);
          string_of_int l;
          string_of_int d;
          string_of_int (l + d);
          Printf.sprintf "%.1f%%" (100. *. mean (l + d) total);
        ])
      used
  in
  let rows =
    if List.length used > 1 then
      rows
      @ [
          [
            "total";
            string_of_int (Array.fold_left ( + ) 0 t.rq_link);
            string_of_int (Array.fold_left ( + ) 0 t.rq_dir);
            string_of_int (rq_total t);
            "100.0%";
          ];
        ]
    else rows
  in
  Table.of_rows ~aligns headers rows

(* Where every memory cycle went: transfers (split into service and
   occupancy queueing), local hits, bulk-accounted elided probes. *)
let summary_table t : Table.t =
  let tt = t.totals in
  let headers = [ "metric"; "count"; "cycles" ] in
  let aligns = [ Table.Left; Table.Right; Table.Right ] in
  let row name cnt cy = [ name; string_of_int cnt; string_of_int cy ] in
  Table.of_rows ~aligns headers
    [
      row "coherence transfers" tt.Trace.t_xfers tt.Trace.t_xfer_cy;
      [ "  of which queued on occupancy"; "-"; string_of_int tt.Trace.t_queued_cy ];
      row "local cache hits" tt.Trace.t_local tt.Trace.t_local_cy;
      row "elided spin probes" tt.Trace.t_elided tt.Trace.t_elided_cy;
      [ "lock acquisitions"; string_of_int tt.Trace.t_acquires; "-" ];
      [ "lock releases"; string_of_int tt.Trace.t_releases; "-" ];
      [ "parks / wakes";
        Printf.sprintf "%d / %d" tt.Trace.t_parks tt.Trace.t_wakes; "-" ];
      [ "messages sent / received";
        Printf.sprintf "%d / %d" tt.Trace.t_sends tt.Trace.t_recvs; "-" ];
      [ "faults injected"; string_of_int tt.Trace.t_faults; "-" ];
      [ "events emitted (jobs)";
        Printf.sprintf "%d (%d)" tt.Trace.t_emitted t.n_jobs; "-" ];
      [ "events dropped by ring"; string_of_int t.dropped; "-" ];
    ]
