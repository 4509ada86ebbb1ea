(* Tests of the tracing/profiling subsystem:

   - ring-buffer semantics: geometric growth to the cap, wrap-around
     with [dropped] accounting, never-dropped aggregate totals;
   - reconciliation: trace aggregates match the engine's own perf
     counters exactly (parks, wakeups, elided probes) for a traced
     simulation;
   - the Chrome exporter emits valid trace-event JSON — checked with a
     small hand-rolled parser (no JSON library in this environment):
     every event carries ph/pid/tid, every non-metadata event carries
     ts, and timestamps are monotone per (pid, tid) track;
   - exports are byte-identical at --jobs 1 and --jobs 4;
   - profile invariants: acquisitions equal releases for a
     acquire/release-balanced workload, the handoff matrix sums to
     acquisitions minus first acquisitions, per-thread fairness
     counts sum to the acquisition count, and the fairness min/max is
     the per-thread op counts' min/max;
   - the consumers on a wrapped ring: [Profile] and [Invariant] read
     exactly the retained window, and the totals still reconcile;
     [Invariant] takes a release that ends a hold granted before the
     window for what it is.

   Tests state events through [Trace_view], the boxed view of the
   ring's ints. *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
open Ssync_simlocks
module Trace = Ssync_trace.Trace
module V = Trace_view
module Chrome = Ssync_trace.Chrome
module Profile = Ssync_trace.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --------------------------- ring buffer --------------------------- *)

let test_ring_wrap () =
  let tr = Trace.create ~capacity:64 () in
  for i = 0 to 99 do
    V.emit tr ~ts:i (V.E_park { tid = 0; addr = i })
  done;
  check_int "ring holds its capacity" 64 (Trace.length tr);
  check_int "oldest events dropped" 36 (Trace.dropped tr);
  let first = ref (-1) and count = ref 0 and last = ref (-1) in
  V.iter tr (fun e ->
      if !first < 0 then first := e.V.ts;
      check_bool "iter is chronological" true (e.V.ts >= !last);
      last := e.V.ts;
      incr count);
  check_int "iter covers the retained window" 64 !count;
  check_int "retained window starts after the drop" 36 !first;
  let tt = Trace.totals tr in
  check_int "aggregates never drop" 100 tt.Trace.t_parks;
  check_int "emitted counts everything" 100 tt.Trace.t_emitted

let test_epoch_offsets () =
  let tr = Trace.create () in
  V.emit tr ~ts:500 (V.E_park { tid = 0; addr = 0 });
  Trace.new_epoch tr;
  (* the second sim restarts at ts 0; its events must land after the
     first sim's on the shared timeline *)
  V.emit tr ~ts:0 (V.E_wake { tid = 0; addr = 0 });
  let tss = ref [] in
  V.iter tr (fun e -> tss := e.V.ts :: !tss);
  match List.rev !tss with
  | [ a; b ] ->
      check_int "first epoch timestamp" 500 a;
      check_bool "second epoch offset past the first" true (b >= a)
  | _ -> Alcotest.fail "expected two events"

(* Events of every kind, with the values each field can take at its
   edges: both handoff forms and every distance, the setup track's tid
   -1, every (op, pre, post, distance) with both [rq_dir] values, a
   transfer's core at both ends of its range, and extreme ints in
   every full-int field. *)
let all_kinds =
  let open V in
  let ints = [ 0; 1; -1; 4242; max_int; min_int; 1 lsl 40; -(1 lsl 40) ] in
  let cores = [| 0; 79; -1; Trace.max_core; Trace.min_core |] in
  let ops = Arch.[ Load; Store; Cas; Fai; Tas; Swap ] in
  let states = Array.to_list Arch.cstate_of_index in
  let dists = Array.to_list Cost_model.class_of_rank in
  let plain =
    List.concat_map
      (fun x ->
        [
          E_thread { tid = -1; core = x };
          E_wait { tid = x; lock = x };
          E_acq { tid = -1; lock = x; wait = x; dist = None };
          E_rel { tid = x; lock = -1; held = x };
          E_park { tid = 3; addr = x };
          E_wake { tid = x; addr = -1 };
          E_fault { tid = x; kind = Jitter; cycles = x };
          E_send { tid = x; chan = x };
          E_recv { tid = -1; chan = x };
        ])
      ints
  in
  let acqs =
    List.map (fun d -> E_acq { tid = 2; lock = 1; wait = 77; dist = Some d }) dists
  in
  let faults =
    List.map
      (fun kind -> E_fault { tid = 0; kind; cycles = max_int })
      [ Jitter; Preempt; Crash ]
  in
  let i = ref 0 in
  let xfers =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun pre ->
            List.concat_map
              (fun post ->
                List.concat_map
                  (fun dist ->
                    List.map
                      (fun rq_dir ->
                        incr i;
                        let x = List.nth ints (!i mod List.length ints) in
                        E_xfer
                          {
                            tid = (!i mod 3) - 1; core = cores.(!i mod 5); op;
                            addr = x; pre; post; dist; lat = -x; service = x;
                            queued = !i; rq = x; rq_dir;
                          })
                      [ true; false ])
                  dists)
              states)
          states)
      ops
  in
  plain @ acqs @ faults @ xfers

let retained tr = List.map (fun e -> (e.V.ts, e.V.ev)) (V.entries tr)

let test_ring_round_trip () =
  let evs = List.mapi (fun i ev -> (i, ev)) all_kinds in
  let tr = Trace.create ~capacity:(List.length evs) () in
  List.iter (fun (ts, ev) -> V.emit tr ~ts ev) evs;
  check_int "nothing dropped" 0 (Trace.dropped tr);
  check_bool "every event reads back as emitted" true (retained tr = evs)

(* Mixed kinds through a wrap: the ring keeps the last [capacity]
   events, in order. *)
let test_ring_mixed_wrap () =
  let evs = List.filteri (fun i _ -> i < 100) (List.rev all_kinds) in
  let evs = List.mapi (fun i ev -> (10 * i, ev)) evs in
  let tr = Trace.create ~capacity:64 () in
  List.iter (fun (ts, ev) -> V.emit tr ~ts ev) evs;
  check_int "ring holds its capacity" 64 (Trace.length tr);
  check_int "oldest events dropped" 36 (Trace.dropped tr);
  check_int "emitted counts everything" 100 (Trace.totals tr).Trace.t_emitted;
  check_bool "the last 64 events, in order" true
    (retained tr = List.filteri (fun i _ -> i >= 36) evs)

(* Emitters write ints into the ring: 10k emits of each kind into a
   ring already at its capacity (so it wraps and never grows), and 10k
   traced [Memory] transfers and local hits, allocate nothing. *)
let test_emit_allocation_free () =
  let during = Test_coherence.minor_words_during in
  let tr = Trace.create ~capacity:1024 () in
  let lock = Trace.new_lock tr "L" and chan = Trace.new_chan tr "C" in
  let head =
    Trace.xfer_head ~core:3 ~op:Arch.Cas ~pre:Arch.Shared ~post:Arch.Modified
      ~dist:Arch.One_hop ~rq_dir:true
  in
  List.iter
    (fun (name, emit) ->
      let words =
        during (fun () ->
            for i = 1 to 10_000 do
              emit i
            done)
        - during ignore
      in
      check_int (name ^ ": 10k emits, minor words") 0 words)
    [
      ("thread", fun i -> Trace.thread tr ~ts:i ~tid:(i land 7) ~core:i);
      ("wait", fun i -> Trace.wait tr ~ts:i ~tid:1 ~lock);
      ( "acq",
        fun i -> Trace.acq tr ~ts:i ~tid:1 ~lock ~wait:i ~handoff:((i mod 7) - 1)
      );
      ("rel", fun i -> Trace.rel tr ~ts:i ~tid:1 ~lock ~held:i);
      ( "xfer",
        fun i ->
          Trace.xfer tr ~ts:i ~tid:(-1) ~addr:i ~lat:i ~service:i ~queued:1
            ~rq:(i land 3) head );
      ("park", fun i -> Trace.park tr ~ts:i ~tid:2 ~addr:i);
      ("wake", fun i -> Trace.wake tr ~ts:i ~tid:2 ~addr:i);
      ( "fault",
        fun i -> Trace.fault tr ~ts:i ~tid:0 ~kind:Trace.Preempt ~cycles:i );
      ("send", fun i -> Trace.send tr ~ts:i ~tid:0 ~chan);
      ("recv", fun i -> Trace.recv tr ~ts:i ~tid:1 ~chan);
    ];
  check_int "the ring stayed at its capacity" 1024 (Trace.length tr);
  let tr = Trace.start ~capacity:1024 () in
  let m =
    Fun.protect
      ~finally:(fun () -> ignore (Trace.stop ()))
      (fun () -> Memory.create Platform.opteron)
  in
  let a = Memory.alloc m in
  let access ~core op i =
    ignore
      (Memory.access_lat_in m ~core ~now:(i * 1_000) op a ~operand:i
         ~operand2:0 ~fetch:false)
  in
  access ~core:0 Arch.Store 0;
  List.iter
    (fun (name, core, op, count) ->
      let before = count (Trace.totals tr) in
      let words =
        during (fun () ->
            for i = 1 to 10_000 do
              access ~core:(core i) op i
            done)
        - during ignore
      in
      check_int (name ^ " recorded") 10_000 (count (Trace.totals tr) - before);
      check_int (name ^ ": 10k traced accesses, minor words") 0 words)
    [
      ( "transfers", (fun i -> i land 1), Arch.Store,
        fun tt -> tt.Trace.t_xfers );
      (* core 0 made the last store *)
      ("local load hits", (fun _ -> 0), Arch.Load, fun tt -> tt.Trace.t_local);
      ("local store hits", (fun _ -> 0), Arch.Store, fun tt -> tt.Trace.t_local);
    ];
  Memory.dispose m

(* ----------------- traced simulation + reconciliation -------------- *)

(* A contended lock workload on the Opteron: parks, wakes and elided
   probes all occur, so the reconciliation is non-trivial. *)
let traced_workload ?(threads = 8) () =
  Harness.run Platform.opteron ~threads ~duration:60_000
    ~setup:(fun mem ->
      let p = Platform.opteron in
      (Simlock.create mem p ~n_threads:threads Simlock.Ticket, Memory.alloc mem))
    ~body:(fun (lock, data) _mem ~tid ~deadline ->
      let n = ref 0 in
      while Sim.now () < deadline do
        lock.Lock_type.acquire ~tid;
        ignore (Sim.fai data);
        lock.Lock_type.release ~tid;
        Sim.pause 100;
        incr n
      done;
      !n)

let with_trace ?capacity f =
  let tr = Trace.start ?capacity () in
  match f () with
  | v ->
      ignore (Trace.stop ());
      (v, tr)
  | exception e ->
      ignore (Trace.stop ());
      raise e

let test_reconciles_with_perf () =
  let r, tr = with_trace traced_workload in
  let tt = Trace.totals tr in
  let p = r.Harness.perf in
  check_bool "workload did work" true (r.Harness.total_ops > 0);
  check_bool "events were recorded" true (Trace.length tr > 0);
  check_int "parks reconcile" p.Sim.parks tt.Trace.t_parks;
  check_int "wakeups reconcile" p.Sim.wakeups tt.Trace.t_wakes;
  check_int "elided probes reconcile" p.Sim.elided_probes tt.Trace.t_elided;
  check_int "acquires balance releases" tt.Trace.t_acquires
    tt.Trace.t_releases

let test_traced_run_same_virtual_time () =
  (* tracing must not perturb the simulation: identical throughput and
     engine counters (minus wall time) with and without a sink *)
  let plain = traced_workload () in
  let traced, _ = with_trace traced_workload in
  check_int "total ops unchanged" plain.Harness.total_ops
    traced.Harness.total_ops;
  check_int "events unchanged" plain.Harness.perf.Sim.events
    traced.Harness.perf.Sim.events;
  check_int "sim cycles unchanged" plain.Harness.perf.Sim.sim_cycles
    traced.Harness.perf.Sim.sim_cycles

(* ------------------------- profile sanity -------------------------- *)

let test_profile_invariants () =
  let r, tr = with_trace traced_workload in
  let prof = Profile.of_traces [ tr ] in
  (match Profile.locks_in_order prof with
  | [ name ] ->
      check_string "one lock profiled" "TICKET" name;
      let lp = Hashtbl.find prof.Profile.locks name in
      check_int "acqs == releases" lp.Profile.acqs lp.Profile.rels;
      check_int "every op acquired once" r.Harness.total_ops lp.Profile.acqs;
      let handoffs = Array.fold_left ( + ) 0 lp.Profile.handoff in
      check_int "handoff matrix sums to non-first acquisitions"
        (lp.Profile.acqs - lp.Profile.first_acqs)
        handoffs;
      check_int "fairness counts sum to acqs" lp.Profile.acqs
        (Array.fold_left (fun s c -> s + Int.max 0 c) 0 lp.Profile.by_tid);
      check_int "histogram sums to acqs" lp.Profile.acqs
        (Array.fold_left ( + ) 0 lp.Profile.wait_hist)
  | l -> Alcotest.failf "expected one lock, got %d" (List.length l));
  (* the rendered tables must not raise and must mention the lock *)
  let tbls =
    [
      Profile.lock_table prof; Profile.wait_hist_table prof;
      Profile.coherence_table prof; Profile.transitions_table prof;
      Profile.lines_table prof; Profile.summary_table prof;
    ]
  in
  check_int "all tables render" 6 (List.length tbls)

(* The fairness column spans the threads that waited on or acquired
   the lock, not the padding of its per-tid array: a 3-thread run's
   min/max acquisitions are its per-thread op counts' (one acquisition
   per op). *)
let test_profile_fairness () =
  let lock trs = Hashtbl.find (Profile.of_traces trs).Profile.locks "TICKET" in
  let fair trs = Profile.fairness (lock trs) in
  let min_max counts =
    match List.filter (fun c -> c >= 0) (Array.to_list counts) with
    | [] -> None
    | c :: cs -> Some (List.fold_left min c cs, List.fold_left max c cs)
  in
  let r, tr = with_trace (traced_workload ~threads:3) in
  Alcotest.(check (option (pair int int)))
    "fair min/max = min/max of Harness ops" (min_max r.Harness.ops)
    (fair [ tr ]);
  let _, tr2 = with_trace (traced_workload ~threads:2) in
  let _, tr8 = with_trace (traced_workload ~threads:8) in
  let ratio trs =
    match fair trs with
    | Some (mn, mx) -> float_of_int mn /. float_of_int mx
    | None -> nan
  in
  let worst = if ratio [ tr8 ] < ratio [ tr2 ] then tr8 else tr2 in
  Alcotest.(check (option (pair int int)))
    "two jobs: the least fair job's min/max" (fair [ worst ])
    (fair [ tr2; tr8 ]);
  let b2 = (lock [ tr2 ]).Profile.by_tid in
  let merged =
    Array.mapi
      (fun tid c -> c + if tid < Array.length b2 then Int.max 0 b2.(tid) else 0)
      (lock [ tr8 ]).Profile.by_tid
  in
  check_bool "merging counts by tid would answer otherwise" true
    (min_max merged <> fair [ tr2; tr8 ])

(* A ring far smaller than the run: [Profile] and [Invariant] read
   exactly the retained window, which replayed into a ring that holds
   it all gives the same lock, transfer and line tables and the same
   report; the profile carries the drop count, the report is marked
   truncated, and the aggregates still reconcile with [Sim.perf]. *)
let test_consumers_on_wrapped_ring () =
  let r, tr = with_trace ~capacity:256 traced_workload in
  let tt = Trace.totals tr and p = r.Harness.perf in
  check_bool "the ring wrapped" true (Trace.dropped tr > 0);
  let window = Trace.create ~capacity:(Trace.length tr) () in
  ignore (Trace.new_lock window (Trace.lock_name tr 0));
  Trace.set_platform window (Trace.platform tr);
  V.iter tr (fun e -> V.emit window ~ts:e.V.ts e.V.ev);
  check_int "the replay holds the window" 0 (Trace.dropped window);
  let prof = Profile.of_traces [ tr ] and want = Profile.of_traces [ window ] in
  let lp = Hashtbl.find prof.Profile.locks "TICKET" in
  check_bool "lock profile = the window's" true
    (lp = Hashtbl.find want.Profile.locks "TICKET");
  (* the window's sums, read through the decoder *)
  let acqs = ref 0 and wait = ref 0 and held = ref 0 in
  let xfers = ref 0 and lat = ref 0 and queued = ref 0 in
  V.iter tr (fun e ->
      match e.V.ev with
      | V.E_acq { wait = w; _ } ->
          incr acqs;
          wait := !wait + w
      | V.E_rel { held = h; _ } -> held := !held + h
      | V.E_xfer { lat = l; queued = q; _ } ->
          incr xfers;
          lat := !lat + l;
          queued := !queued + q
      | _ -> ());
  check_int "profile acquisitions = the window's" !acqs lp.Profile.acqs;
  check_bool "fewer than the run made" true (!acqs < tt.Trace.t_acquires);
  check_int "wait cycles = the window's" !wait lp.Profile.wait_cy;
  check_int "hold cycles = the window's" !held lp.Profile.hold_cy;
  let sum f = Hashtbl.fold (fun _ a s -> s + f a) prof.Profile.xfers 0 in
  check_int "transfers = the window's" !xfers (sum (fun a -> a.Profile.cnt));
  check_int "transfer cycles = the window's" !lat (sum (fun a -> a.Profile.cy));
  check_int "queued cycles = the window's" !queued (sum (fun a -> a.Profile.q));
  check_bool "transfer rows = the window's" true
    (Profile.xfer_rows prof = Profile.xfer_rows want);
  check_bool "transitions = the window's" true
    (prof.Profile.trans = want.Profile.trans);
  check_bool "hottest lines = the window's" true
    (Profile.lines_table prof = Profile.lines_table want);
  check_int "profile carries the drop count" (Trace.dropped tr)
    prof.Profile.dropped;
  check_bool "profile totals = the trace's" true (prof.Profile.totals = tt);
  check_int "parks reconcile" p.Sim.parks tt.Trace.t_parks;
  check_int "wakeups reconcile" p.Sim.wakeups tt.Trace.t_wakes;
  check_int "elided probes reconcile" p.Sim.elided_probes tt.Trace.t_elided;
  check_int "link queued cycles reconcile" p.Sim.link_queued_cycles
    (Profile.rq_total prof);
  let check tr = Invariant.check ~completed:(fun _ -> true) tr in
  let rep = check tr in
  check_bool "report marked truncated" true rep.Invariant.truncated;
  check_int "report acquisitions = the window's" !acqs
    rep.Invariant.acquisitions;
  check_bool "report = the window's" true
    (rep = { (check window) with Invariant.truncated = true })

(* A wrapped ring can start inside a hold: the window's first event of
   the lock is then a release whose grant was dropped.  Across ring
   capacities 240-270 the 8-thread run's window starts inside a hold at
   several of them, and [Invariant] reports no violation at any.  On
   hand-made rings, a release without a hold after the lock's first
   grant in the window is still flagged, and so is one before it on a
   ring that dropped nothing. *)
let test_invariant_window_starts_in_hold () =
  let check tr = Invariant.check ~completed:(fun _ -> true) tr in
  let violations rep =
    List.map Invariant.pp_violation rep.Invariant.violations
  in
  let starts_in_hold tr =
    let first = ref None in
    V.iter tr (fun e ->
        match (!first, e.V.ev) with
        | None, V.E_acq _ -> first := Some false
        | None, V.E_rel _ -> first := Some true
        | _ -> ());
    !first = Some true
  in
  let in_hold = ref 0 in
  for capacity = 240 to 270 do
    let _, tr = with_trace ~capacity traced_workload in
    check_bool "the ring wrapped" true (Trace.dropped tr > 0);
    if starts_in_hold tr then incr in_hold;
    Alcotest.(check (list string))
      (Printf.sprintf "capacity %d: violations" capacity)
      [] (violations (check tr))
  done;
  check_bool "some windows start inside a hold" true (!in_hold > 0);
  (* t1's hold began before the window; t3 releases a lock it never
     held, after t2's grant *)
  let ring ~capacity =
    let tr = Trace.create ~capacity () in
    let lock = Trace.new_lock tr "L" in
    List.iteri
      (fun i ev -> V.emit tr ~ts:i ev)
      [
        V.E_park { tid = 0; addr = 0 };
        V.E_rel { tid = 1; lock; held = 5 };
        V.E_acq { tid = 2; lock; wait = 0; dist = None };
        V.E_rel { tid = 2; lock; held = 1 };
        V.E_rel { tid = 3; lock; held = 1 };
      ];
    tr
  in
  let t3 = "[mutual-exclusion] L t3 @4: t3 released without holding" in
  Alcotest.(check (list string))
    "wrapped ring: the release after the grant" [ t3 ]
    (violations (check (ring ~capacity:4)));
  Alcotest.(check (list string))
    "whole ring: both releases without a hold"
    [ "[mutual-exclusion] L t1 @1: t1 released without holding"; t3 ]
    (violations (check (ring ~capacity:8)))

(* ------------------- minimal JSON schema checker ------------------- *)

(* Just enough of a JSON parser to validate the exporters' output,
   but strict about strings, where exporters go wrong: values become a
   tree of variants; parse errors raise [Failure]. *)
type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_num of float
  | J_bool of bool
  | J_null

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let hex_digit () =
    let c = peek () in
    advance ();
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> fail "bad \\u escape"
  in
  (* Strict: only JSON's escapes, no raw control bytes; \uXXXX decodes
     to UTF-8 (surrogates are not needed here and are rejected). *)
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          let c = peek () in
          advance ();
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char b c
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let u = ref 0 in
              for _ = 1 to 4 do
                u := (!u * 16) + hex_digit ()
              done;
              if !u >= 0xd800 && !u < 0xe000 then fail "surrogate escape";
              Buffer.add_utf_8_uchar b (Uchar.of_int !u)
          | _ -> fail "invalid escape");
          go ()
      | c when Char.code c < 32 -> fail "raw control character in string"
      | c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          J_arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elems (v :: acc)
            | ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (elems [])
        end
    | '"' -> J_str (parse_string ())
    | 't' -> literal "true" (J_bool true)
    | 'f' -> literal "false" (J_bool false)
    | 'n' -> literal "null" J_null
    | c when c = '-' || (c >= '0' && c <= '9') ->
        let start = !pos in
        let num c = (c >= '0' && c <= '9') || String.contains "-+.eE" c in
        while num (peek ()) do
          advance ()
        done;
        J_num (float_of_string (String.sub s start (!pos - start)))
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field o k =
  match o with J_obj kvs -> List.assoc_opt k kvs | _ -> None

let as_num = function J_num f -> Some f | _ -> None
let as_str = function J_str s -> Some s | _ -> None

(* ----------------------- Chrome export schema ---------------------- *)

let export_of_workload () =
  let _, tr = with_trace traced_workload in
  Chrome.export_string [ ("job/0", tr) ]

let test_chrome_schema () =
  let s = export_of_workload () in
  let j = parse_json s in
  let events =
    match obj_field j "traceEvents" with
    | Some (J_arr evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  check_bool "events exported" true (List.length events > 100);
  let tracks : (float * float, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let ph =
        match obj_field e "ph" with
        | Some (J_str p) -> p
        | _ -> Alcotest.fail "event without ph"
      in
      let num k =
        match Option.bind (obj_field e k) as_num with
        | Some v -> v
        | None -> Alcotest.failf "event without numeric %s" k
      in
      check_bool "name present" true (obj_field e "name" <> None);
      let pid = num "pid" and tid = num "tid" in
      if ph <> "M" then begin
        let ts = num "ts" in
        check_bool "timestamps non-negative" true (ts >= 0.);
        (match Hashtbl.find_opt tracks (pid, tid) with
        | Some prev ->
            if ts < prev then
              Alcotest.failf "track (%g,%g): ts %g after %g" pid tid ts prev
        | None -> ());
        Hashtbl.replace tracks (pid, tid) ts
      end)
    events;
  (* the process got named after its job label *)
  let labeled =
    List.exists
      (fun e ->
        obj_field e "name" = Some (J_str "process_name")
        && (match obj_field e "args" with
           | Some a -> Option.bind (obj_field a "name") as_str = Some "job/0"
           | None -> false))
      events
  in
  check_bool "process named after the job label" true labeled

(* ----------------- determinism across domain counts ---------------- *)

(* Four independent lock sims fanned through the pool: the export must
   be byte-identical however many domains executed the jobs. *)
let pool_export ~jobs =
  let thunks =
    Array.init 4 (fun _ ->
        Ssync_bench.Section.observe ~trace:true (fun () ->
            ignore (traced_workload ())))
  in
  let results = Pool.run ~jobs thunks in
  let traces =
    List.filter_map
      (fun (o, _) -> o.Ssync_bench.Section.trace)
      (Array.to_list results)
  in
  check_int "every job traced" 4 (List.length traces);
  Chrome.export_string
    (List.mapi (fun i tr -> (Printf.sprintf "job/%d" i, tr)) traces)

let test_export_jobs_identical () =
  let s1 = pool_export ~jobs:1 in
  let s4 = pool_export ~jobs:4 in
  check_bool "export non-trivial" true (String.length s1 > 10_000);
  check_string "byte-identical at --jobs 1 and 4" s1 s4

(* ------------------------ string escaping -------------------------- *)

(* Every name an exporter writes must come out as valid JSON and parse
   back to itself, whatever bytes it holds. *)
let nasty = "q\"b\\s\nn\001c \xc3\xa9"

let parse_or_fail what s =
  match parse_json s with
  | j -> j
  | exception Failure msg -> Alcotest.failf "%s is not valid JSON: %s" what msg

let test_names_escaped () =
  let module Metrics = Ssync_metrics.Metrics in
  let tr = Trace.create () in
  let lock = Trace.new_lock tr ("L" ^ nasty) in
  let chan = Trace.new_chan tr ("C" ^ nasty) in
  V.emit tr ~ts:1 (V.E_wait { tid = 0; lock });
  V.emit tr ~ts:2
    (V.E_acq { tid = 0; lock; wait = 1; dist = Some Arch.One_hop });
  V.emit tr ~ts:3 (V.E_send { tid = 0; chan });
  V.emit tr ~ts:4 (V.E_rel { tid = 1; lock; held = 2 });
  let m = Metrics.create () in
  Metrics.bump m ~kind:Metrics.k_parks ~id:0 ~ts:0 1;
  let label = "J" ^ nasty in
  let events =
    match
      obj_field
        (parse_or_fail "chrome export"
           (Chrome.export_string ~metrics:[ (label, m) ] [ (label, tr) ]))
        "traceEvents"
    with
    | Some (J_arr evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  let has name ?arg () =
    List.exists
      (fun e ->
        obj_field e "name" = Some (J_str name)
        &&
        match arg with
        | None -> true
        | Some (k, v) -> (
            match obj_field e "args" with
            | Some a -> obj_field a k = Some (J_str v)
            | None -> false))
      events
  in
  check_bool "process named after the label" true
    (has "process_name" ~arg:("name", label) ());
  List.iter
    (fun n -> check_bool n true (has n ()))
    [ "wait L" ^ nasty; "hold L" ^ nasty; "release L" ^ nasty ];
  check_bool "send names its channel" true
    (has "send" ~arg:("chan", "C" ^ nasty) ());
  let b = Buffer.create 256 in
  Metrics.dump_json b [ (label, m) ];
  match obj_field (parse_or_fail "metrics dump" (Buffer.contents b)) "jobs" with
  | Some (J_arr [ job ]) ->
      check_bool "dump keeps the label" true
        (obj_field job "label" = Some (J_str label))
  | _ -> Alcotest.fail "expected one job in the dump"

let test_parser_is_strict () =
  List.iter
    (fun s ->
      match parse_json s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Failure _ -> ())
    [
      "\"\\0\""; "\"\\1\""; "\"\\x41\""; "\"a\nb\""; "\"\001\""; "\"\\u12\"";
      "tru";
    ]

let suite =
  [
    Alcotest.test_case "ring: wrap and totals" `Quick test_ring_wrap;
    Alcotest.test_case "ring: epoch offsets" `Quick test_epoch_offsets;
    Alcotest.test_case "totals reconcile with Sim.perf" `Quick
      test_reconciles_with_perf;
    Alcotest.test_case "tracing leaves virtual time unchanged" `Quick
      test_traced_run_same_virtual_time;
    Alcotest.test_case "profile invariants" `Quick test_profile_invariants;
    Alcotest.test_case "chrome export: schema and monotone tracks" `Quick
      test_chrome_schema;
    Alcotest.test_case "chrome export: byte-identical across domains" `Quick
      test_export_jobs_identical;
    Alcotest.test_case "strict JSON parser rejects bad strings" `Quick
      test_parser_is_strict;
    Alcotest.test_case "exports escape every name" `Quick test_names_escaped;
    Alcotest.test_case "ring: every kind round-trips" `Quick
      test_ring_round_trip;
    Alcotest.test_case "ring: mixed kinds wrap" `Quick test_ring_mixed_wrap;
    Alcotest.test_case "ring: emits allocate nothing" `Quick
      test_emit_allocation_free;
    Alcotest.test_case "profile fairness spans the lock's threads" `Quick
      test_profile_fairness;
    Alcotest.test_case "profile and invariants read a wrapped ring" `Quick
      test_consumers_on_wrapped_ring;
    Alcotest.test_case "invariants: a window may start inside a hold" `Quick
      test_invariant_window_starts_in_hold;
  ]
