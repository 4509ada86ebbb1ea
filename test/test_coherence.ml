(* Tests of the coherence memory model: protocol transitions, data
   semantics, contention serialization, and qcheck invariants. *)

open Ssync_platform
open Ssync_coherence

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mem_on pid = Memory.create (Platform.get pid)

let state_name m a = Arch.cstate_name (Memory.line m a).Memory.state

(* ------------------------- transitions --------------------------- *)

let test_load_fills_exclusive () =
  let m = mem_on Arch.Xeon in
  let a = Memory.alloc m in
  Alcotest.(check string) "starts invalid" "Invalid" (state_name m a);
  ignore (Memory.access m ~core:0 ~now:0 Arch.Load a);
  Alcotest.(check string) "exclusive after first load" "Exclusive"
    (state_name m a)

let test_moesi_owned_on_opteron () =
  let m = mem_on Arch.Opteron in
  let a = Memory.alloc m in
  ignore (Memory.access m ~core:0 ~now:0 Arch.Store a ~operand:7);
  Alcotest.(check string) "modified after store" "Modified" (state_name m a);
  ignore (Memory.access m ~core:6 ~now:0 Arch.Load a);
  (* MOESI: the dirty copy stays with core 0 in Owned state *)
  Alcotest.(check string) "owned after remote load" "Owned" (state_name m a);
  check_bool "owner kept" true ((Memory.line m a).Memory.owner = 0);
  check_bool "reader became sharer" true
    (Coreset.mem (Memory.line m a).Memory.sharers 6)

let test_mesi_shared_on_xeon () =
  let m = mem_on Arch.Xeon in
  let a = Memory.alloc m in
  ignore (Memory.access m ~core:0 ~now:0 Arch.Store a ~operand:7);
  ignore (Memory.access m ~core:1 ~now:0 Arch.Load a);
  Alcotest.(check string) "shared after remote load" "Shared" (state_name m a);
  check_bool "no owner" true ((Memory.line m a).Memory.owner = -1);
  check_int "two sharers" 2 (Coreset.cardinal (Memory.line m a).Memory.sharers)

let test_store_invalidates_sharers () =
  let m = mem_on Arch.Xeon in
  let a = Memory.alloc m in
  ignore (Memory.access m ~core:0 ~now:0 Arch.Load a);
  ignore (Memory.access m ~core:1 ~now:0 Arch.Load a);
  ignore (Memory.access m ~core:2 ~now:0 Arch.Load a);
  ignore (Memory.access m ~core:3 ~now:0 Arch.Store a ~operand:9);
  let l = Memory.line m a in
  Alcotest.(check string) "modified" "Modified" (state_name m a);
  check_bool "owner is 3" true (l.Memory.owner = 3);
  check_int "no sharers" 0 (Coreset.cardinal l.Memory.sharers);
  check_int "value stored" 9 (Memory.peek m a)

(* ------------------------- data semantics ------------------------ *)

let test_cas_semantics () =
  let m = mem_on Arch.Opteron in
  let a = Memory.alloc m ~value:5 in
  let _, ok = Memory.access m ~core:0 ~now:0 Arch.Cas a ~operand:4 ~operand2:9 in
  check_int "cas fails on mismatch" 0 ok;
  check_int "value unchanged" 5 (Memory.peek m a);
  let _, ok = Memory.access m ~core:0 ~now:0 Arch.Cas a ~operand:5 ~operand2:9 in
  check_int "cas succeeds" 1 ok;
  check_int "value swapped" 9 (Memory.peek m a)

let test_fai_tas_swap_semantics () =
  let m = mem_on Arch.Niagara in
  let a = Memory.alloc m ~value:41 in
  let _, old = Memory.access m ~core:0 ~now:0 Arch.Fai a ~operand:1 in
  check_int "fai returns old" 41 old;
  check_int "fai increments" 42 (Memory.peek m a);
  let b = Memory.alloc m in
  let _, old = Memory.access m ~core:0 ~now:0 Arch.Tas b in
  check_int "tas wins on 0" 0 old;
  let _, old = Memory.access m ~core:1 ~now:0 Arch.Tas b in
  check_int "tas loses on 1" 1 old;
  let _, old = Memory.access m ~core:1 ~now:0 Arch.Swap b ~operand:7 in
  check_int "swap returns old" 1 old;
  check_int "swap stores" 7 (Memory.peek m b)

(* ------------------------- latencies ----------------------------- *)

let test_local_spin_is_cheap () =
  (* A core that loaded a line spins on it at L1 cost. *)
  let m = mem_on Arch.Opteron in
  let a = Memory.alloc m in
  ignore (Memory.access m ~core:0 ~now:0 Arch.Store a ~operand:1);
  ignore (Memory.access m ~core:1 ~now:0 Arch.Load a);
  let lat, _ = Memory.access m ~core:1 ~now:1000 Arch.Load a in
  check_bool "second load is a hit" true (lat <= 5)

let test_contention_serializes () =
  (* Two stores issued at the same instant: the second queues behind the
     first's occupancy. *)
  let m = mem_on Arch.Xeon in
  let a = Memory.alloc m in
  ignore (Memory.access m ~core:5 ~now:0 Arch.Store a ~operand:1);
  Memory.reset_busy m a;
  let l1, _ = Memory.access m ~core:1 ~now:1000 Arch.Store a ~operand:2 in
  let l2, _ = Memory.access m ~core:2 ~now:1000 Arch.Store a ~operand:3 in
  check_bool "second waits" true (l2 > l1)

let test_cross_socket_more_expensive () =
  List.iter
    (fun pid ->
      let m = mem_on pid in
      let p = Platform.get pid in
      let a = Memory.alloc m ~home_core:0 in
      ignore (Memory.access m ~core:1 ~now:0 Arch.Store a ~operand:1);
      Memory.reset_busy m a;
      let near, _ = Memory.access m ~core:0 ~now:1000 Arch.Load a in
      (* rebuild modified-at-1 and measure a far reader *)
      ignore (Memory.access m ~core:1 ~now:2000 Arch.Store a ~operand:2);
      Memory.reset_busy m a;
      let far_core = Platform.n_cores p - 1 in
      let far, _ = Memory.access m ~core:far_core ~now:9000 Arch.Load a in
      check_bool
        (Printf.sprintf "%s: far load (%d) > near load (%d)"
           (Arch.platform_name pid) far near)
        true (far > near))
    [ Arch.Opteron; Arch.Xeon; Arch.Tilera ]

let test_force_state () =
  let m = mem_on Arch.Opteron in
  let a = Memory.alloc m in
  List.iter
    (fun st ->
      Memory.force_state m ~holder:3 st a;
      Alcotest.(check string)
        (Printf.sprintf "forced %s" (Arch.cstate_name st))
        (Arch.cstate_name st) (state_name m a))
    [ Arch.Invalid; Arch.Exclusive; Arch.Modified; Arch.Shared; Arch.Owned ]

(* ------------------------- qcheck invariants --------------------- *)

(* Single-writer/multiple-reader and state consistency after arbitrary
   operation sequences, and value agreement with a sequential model. *)
let qcheck_protocol_invariants =
  let gen =
    QCheck.Gen.(
      let* pid = oneofl Arch.paper_platform_ids in
      let n = (Topology.of_platform pid).Topology.n_cores in
      let* ops =
        list_size (int_range 1 60)
          (triple (int_range 0 (n - 1)) (int_range 0 5) (int_range 0 3))
      in
      return (pid, ops))
  in
  QCheck.Test.make ~count:300 ~name:"protocol invariants + sequential values"
    (QCheck.make gen) (fun (pid, ops) ->
      let m = mem_on pid in
      let addrs = Array.init 4 (fun _ -> Memory.alloc m) in
      let model = Array.make 4 0 in
      let now = ref 0 in
      List.for_all
        (fun (core, opcode, ai) ->
          let a = addrs.(ai) in
          now := !now + 17;
          let ok_value =
            match opcode with
            | 0 ->
                let _, v = Memory.access m ~core ~now:!now Arch.Load a in
                v = model.(ai)
            | 1 ->
                let nv = (core * 7) + !now in
                ignore (Memory.access m ~core ~now:!now Arch.Store a ~operand:nv);
                model.(ai) <- nv;
                true
            | 2 ->
                let _, old = Memory.access m ~core ~now:!now Arch.Fai a ~operand:1 in
                let ok = old = model.(ai) in
                model.(ai) <- model.(ai) + 1;
                ok
            | 3 ->
                let expected = model.(ai) in
                let _, r =
                  Memory.access m ~core ~now:!now Arch.Cas a ~operand:expected
                    ~operand2:(expected + 100)
                in
                model.(ai) <- expected + 100;
                r = 1
            | 4 ->
                let _, old = Memory.access m ~core ~now:!now Arch.Tas a in
                let ok = old = model.(ai) in
                model.(ai) <- 1;
                ok
            | _ ->
                let _, old = Memory.access m ~core ~now:!now Arch.Swap a ~operand:3 in
                let ok = old = model.(ai) in
                model.(ai) <- 3;
                ok
          in
          let l = Memory.line m a in
          let swmr =
            match l.Memory.state with
            | Arch.Modified | Arch.Exclusive ->
                l.Memory.owner >= 0 && Coreset.is_empty l.Memory.sharers
            | Arch.Owned -> l.Memory.owner >= 0
            | Arch.Shared ->
                l.Memory.owner = -1 && not (Coreset.is_empty l.Memory.sharers)
            | Arch.Invalid -> l.Memory.owner = -1 && Coreset.is_empty l.Memory.sharers
          in
          let owner_not_sharer =
            l.Memory.owner < 0
            || not (Coreset.mem l.Memory.sharers l.Memory.owner)
          in
          ok_value && swmr && owner_not_sharer)
        ops)

let qcheck_latency_monotone_queueing =
  QCheck.Test.make ~count:200 ~name:"queued accesses never get faster"
    QCheck.(make Gen.(pair (int_range 0 47) (int_range 0 47)))
    (fun (c1, c2) ->
      let m = mem_on Arch.Opteron in
      let a = Memory.alloc m in
      ignore (Memory.access m ~core:0 ~now:0 Arch.Store a ~operand:1);
      Memory.reset_busy m a;
      let l1, _ = Memory.access m ~core:c1 ~now:100 Arch.Fai a ~operand:1 in
      let l2, _ = Memory.access m ~core:c2 ~now:100 Arch.Fai a ~operand:1 in
      (* the second atomic can never be cheaper than its own service *)
      l1 > 0 && l2 > 0)

(* ------------------------ reference twins ------------------------ *)

(* [Ref_memory] is the record-per-line memory [Memory]'s flat table
   replaced, with the short path it had then: load hits only, metrics
   off.  The helpers read both memories' observable state in one
   shape. *)

module R = Ref_memory

let waiter_grid wq ~link ~fields =
  match wq with
  | None -> []
  | Some last ->
      let rec from w = fields w :: (if w == last then [] else from (link w)) in
      from (link last)

let line_m m a =
  let l = Memory.line m a in
  ( (l.Memory.state, l.Memory.owner, Coreset.elements l.Memory.sharers),
    (l.Memory.home, l.Memory.busy_until, l.Memory.pfw_owner),
    (l.Memory.cas_pending, l.Memory.llc_dirty),
    waiter_grid l.Memory.wq
      ~link:(fun w -> w.Memory.w_link)
      ~fields:(fun w -> (w.Memory.w_core, w.Memory.w_addr, w.Memory.w_next)) )

let line_r r a =
  let l = R.line r a in
  ( (l.R.state, l.R.owner, Coreset.elements l.R.sharers),
    (l.R.home, l.R.busy_until, l.R.pfw_owner),
    (l.R.cas_pending, l.R.llc_dirty),
    waiter_grid l.R.wq
      ~link:(fun w -> w.R.w_link)
      ~fields:(fun w -> (w.R.w_core, w.R.w_addr, w.R.w_next)) )

(* A sink's per-kind totals and every sample, in key order. *)
let samples = function
  | None -> []
  | Some mt ->
      let l = ref [] in
      Ssync_metrics.Metrics.iter_sorted mt (fun ~kind ~id ~bucket v ->
          l := (kind, id, bucket, v) :: !l);
      List.init Ssync_metrics.Metrics.n_kinds (fun kind ->
          Ssync_metrics.Metrics.total mt ~kind)
      :: [ List.concat_map (fun (k, i, b, v) -> [ k; i; b; v ]) !l ]

(* A [Memory] and a [Ref_memory] on [p], each writing into a sink of
   its own when [metrics]. *)
let twins p ~metrics =
  let with_sink create =
    let sink =
      if metrics then Some (Ssync_metrics.Metrics.start ()) else None
    in
    let x = create p in
    if metrics then ignore (Ssync_metrics.Metrics.stop ());
    (x, sink)
  in
  let m, sink_m = with_sink Memory.create in
  let r, sink_r = with_sink R.create in
  (m, sink_m, r, sink_r)

(* Both memories' words, lines, resources, statistics and samples
   agree. *)
let twins_agree p (m, sink_m, r, sink_r) addrs =
  Memory.stats m = R.stats r
  && Array.for_all
       (fun a -> Memory.peek m a = R.peek r a && line_m m a = line_r r a)
       addrs
  && List.for_all
       (fun res -> Memory.resource_busy m res = R.resource_busy r res)
       (List.init (Cost_model.n_resources p.Platform.topo) Fun.id)
  && samples sink_m = samples sink_r

(* ------------------------- local-hit path ------------------------ *)

(* [access_lat_in] serves a local hit on a line without parked waiters
   (a load by a holder, a store or atomic by the owner of a Modified or
   Exclusive line) on a short path, metrics on or off.  [Ref_memory]
   takes its general path for every such store and atomic, and for
   every access with metrics on, so it is the short path's independent
   twin: each random program runs on both, with metrics off and again
   with metrics on, and must agree access by access, in the wakes of
   parked spinners, and in the final words, lines, resources,
   statistics and samples. *)
let qcheck_local_hit_path =
  let gen =
    QCheck.Gen.(
      let* pid = oneofl Arch.all_platform_ids in
      let* ops =
        list_size (int_range 1 80)
          (quad (int_range 0 3) (int_range 0 11) (int_range 0 5)
             (int_range 0 200))
      in
      return (pid, ops))
  in
  QCheck.Test.make ~count:300 ~name:"local-hit path = general path"
    (QCheck.make gen) (fun (pid, ops) ->
      let p = Platform.get pid in
      let n = Platform.n_cores p in
      let cores = [| 0; 1; n / 2; n - 1 |] in
      let run ~metrics =
        let ((m, _, r, _) as tw) = twins p ~metrics in
        (* three padded words homed mid-machine and three on one line *)
        let padded = Memory.alloc_n ~home_core:(n / 2) m 3 in
        let packed = Memory.alloc_packed m 3 in
        ignore (R.alloc_n ~home_core:(n / 2) r 3);
        ignore (R.alloc_packed r 3);
        let addrs =
          [| padded; padded + 1; padded + 2; packed; packed + 1; packed + 2 |]
        in
        let now = ref 0 in
        let wakes_m = ref [] and wakes_r = ref [] in
        let step (ci, opcode, wi, dt) =
          now := !now + dt;
          let core = cores.(ci) and a = addrs.(wi) in
          let access op ~operand ~operand2 ~fetch =
            let lm =
              Memory.access_lat_in m ~core ~now:!now op a ~operand ~operand2
                ~fetch
            in
            let lr =
              R.access_lat_in r ~core ~now:!now op a ~operand ~operand2 ~fetch
            in
            lm = lr && Memory.last_result m = R.last_result r
          in
          match opcode with
          | 0 | 1 | 2 -> access Arch.Load ~operand:0 ~operand2:0 ~fetch:false
          | 3 -> access Arch.Store ~operand:dt ~operand2:0 ~fetch:false
          | 4 -> access Arch.Store ~operand:dt ~operand2:1 ~fetch:false
          | 5 ->
              access Arch.Cas ~operand:(Memory.peek m a) ~operand2:dt
                ~fetch:false
          | 6 -> access Arch.Cas ~operand:0 ~operand2:1 ~fetch:true
          | 7 -> access Arch.Fai ~operand:1 ~operand2:0 ~fetch:false
          | 8 -> access Arch.Fai ~operand:0 ~operand2:0 ~fetch:false
          | 9 -> access Arch.Tas ~operand:0 ~operand2:0 ~fetch:false
          | 10 -> access Arch.Swap ~operand:dt ~operand2:0 ~fetch:false
          | _ ->
              (* park a load spinner on the value it sees, if inert *)
              let while_ = Memory.peek m a and poll = dt + 1 in
              Memory.try_park_in m ~core ~now:!now Arch.Load a ~operand:0
                ~operand2:0 ~while_ ~poll
                ~replay:(fun at -> wakes_m := (core, at) :: !wakes_m)
              = R.try_park_in r ~core ~now:!now Arch.Load a ~operand:0
                  ~operand2:0 ~while_ ~poll
                  ~replay:(fun at -> wakes_r := (core, at) :: !wakes_r)
        in
        let ok =
          List.for_all step ops
          && !wakes_m = !wakes_r
          && twins_agree p tw addrs
        in
        Memory.dispose m;
        R.dispose r;
        ok
      in
      run ~metrics:false && run ~metrics:true)

(* ------------------------ flat-table oracle ---------------------- *)

(* [Memory] keeps every line's state in one int table; [Ref_memory] is
   the record-per-line memory it replaced.  One random program runs on
   both: accesses of every kind, spinners parked with and without tie
   rules, settles, unparks, forced states and occupancy resets, with
   metrics on or off.  Every access must return the same latency and
   result, and the wakes, statistics, words, lines, resources and
   metric samples must agree at the end. *)

let qcheck_flat_table_oracle =
  let gen =
    QCheck.Gen.(
      let* pid = oneofl Arch.all_platform_ids in
      let* metrics = bool in
      let* steps =
        list_size (int_range 1 120)
          (let* ci = int_range 0 3 in
           let* opcode = int_range 0 19 in
           let* wi = int_range 0 5 in
           let* x = int_range 0 3 in
           let* dt = int_range 0 200 in
           return (ci, opcode, wi, x, dt))
      in
      return (pid, metrics, steps))
  in
  QCheck.Test.make ~count:400 ~name:"flat line table = record reference"
    (QCheck.make gen) (fun (pid, metrics, steps) ->
      let p = Platform.get pid in
      let n = Platform.n_cores p in
      let cores = [| 0; 1; n / 2; n - 1 |] in
      let ((m, _, r, _) as tw) = twins p ~metrics in
      (* three padded words homed mid-machine and three on one line *)
      let addrs =
        let padded = Memory.alloc_n ~home_core:(n / 2) m 3 in
        let packed = Memory.alloc_packed m 3 in
        ignore (R.alloc_n ~home_core:(n / 2) r 3);
        ignore (R.alloc_packed r 3);
        [| padded; padded + 1; padded + 2; packed; packed + 1; packed + 2 |]
      in
      let now = ref 0 in
      let wakes_m = ref [] and wakes_r = ref [] in
      let parked = ref [||] in
      let step (ci, opcode, wi, x, dt) =
        now := !now + dt;
        let core = cores.(ci) and a = addrs.(wi) in
        let access op ~operand ~operand2 ~fetch =
          let lm =
            Memory.access_lat_in m ~core ~now:!now op a ~operand ~operand2
              ~fetch
          in
          let lr = R.access_lat_in r ~core ~now:!now op a ~operand ~operand2 ~fetch in
          lm = lr && Memory.last_result m = R.last_result r
        in
        (* park a spinner of [op] if its next probe is inert on both *)
        let park op ~operand ~operand2 ~while_ =
          let hm = Memory.inert_hit m ~core op a ~operand ~operand2 ~while_ in
          let hr = R.inert_hit r ~core op a ~operand ~operand2 ~while_ in
          if hm >= 0 && hr >= 0 then begin
            let tie, tie_r =
              if x land 1 = 0 then (Memory.no_tie, R.no_tie)
              else ((fun g -> g land 2 = 0), fun g -> g land 2 = 0)
            in
            let poll = dt + 1 in
            let wm =
              Memory.park m ~core ~now:!now op a ~operand ~operand2 ~while_
                ~poll ~tie ~replay:(fun at -> wakes_m := (core, at) :: !wakes_m)
            in
            let wr =
              R.park r ~core ~now:!now op a ~operand ~operand2 ~while_ ~poll
                ~tie:tie_r ~replay:(fun at -> wakes_r := (core, at) :: !wakes_r)
            in
            parked := Array.append !parked [| (wm, wr) |]
          end;
          hm = hr
        in
        let some_parked f =
          let k = Array.length !parked in
          if k > 0 then f !parked.((x + dt) mod k);
          true
        in
        match opcode with
        | 0 | 1 -> access Arch.Load ~operand:0 ~operand2:0 ~fetch:false
        | 2 -> access Arch.Store ~operand:x ~operand2:0 ~fetch:false
        | 3 -> access Arch.Store ~operand:x ~operand2:1 ~fetch:false
        | 4 ->
            access Arch.Cas ~operand:(Memory.peek m a) ~operand2:x ~fetch:false
        | 5 -> access Arch.Cas ~operand:x ~operand2:(x + 1) ~fetch:false
        | 6 -> access Arch.Cas ~operand:x ~operand2:(x + 1) ~fetch:true
        | 7 -> access Arch.Fai ~operand:1 ~operand2:0 ~fetch:false
        | 8 -> access Arch.Fai ~operand:0 ~operand2:0 ~fetch:false
        | 9 -> access Arch.Fai ~operand:1 ~operand2:1 ~fetch:false
        | 10 -> access Arch.Tas ~operand:0 ~operand2:0 ~fetch:false
        | 11 -> access Arch.Swap ~operand:x ~operand2:0 ~fetch:false
        | 12 ->
            let while_ = Memory.peek m a and poll = dt + 1 in
            Memory.try_park_in m ~core ~now:!now Arch.Load a ~operand:0
              ~operand2:0 ~while_ ~poll
              ~replay:(fun at -> wakes_m := (core, at) :: !wakes_m)
            = R.try_park_in r ~core ~now:!now Arch.Load a ~operand:0
                ~operand2:0 ~while_ ~poll
                ~replay:(fun at -> wakes_r := (core, at) :: !wakes_r)
        | 13 -> (
            let v = Memory.peek m a in
            match x with
            | 0 -> park Arch.Load ~operand:0 ~operand2:0 ~while_:v
            | 1 -> park Arch.Fai ~operand:0 ~operand2:0 ~while_:v
            | 2 -> park Arch.Tas ~operand:0 ~operand2:0 ~while_:1
            | _ -> park Arch.Cas ~operand:(v + 1) ~operand2:0 ~while_:0)
        | 14 -> park Arch.Swap ~operand:(Memory.peek m a) ~operand2:0
                  ~while_:(Memory.peek m a)
        | 15 ->
            some_parked (fun (wm, wr) ->
                Memory.settle_waiter m wm ~upto:!now;
                R.settle_waiter r wr ~upto:!now)
        | 16 ->
            some_parked (fun (wm, wr) ->
                Memory.unpark m wm ~at:!now;
                R.unpark r wr ~at:!now)
        | 17 ->
            let st =
              match (x, pid) with
              | 0, _ -> Arch.Modified
              | 1, _ -> Arch.Exclusive
              | 2, (Arch.Opteron | Arch.Opteron2) -> Arch.Owned
              | 2, _ -> Arch.Shared
              | _ -> Arch.Invalid
            in
            let second = cores.((ci + 1) mod 4) in
            Memory.force_state m ~holder:core ~second st a;
            R.force_state r ~holder:core ~second st a;
            true
        | 18 ->
            Memory.reset_busy m a;
            R.reset_busy r a;
            true
        | _ ->
            Memory.probe_latency m ~core Arch.Store a
            = R.probe_latency r ~core Arch.Store a
      in
      let ok =
        List.for_all step steps && !wakes_m = !wakes_r && twins_agree p tw addrs
      in
      Memory.dispose m;
      R.dispose r;
      ok)

(* ------------------------- allocation guard ---------------------- *)

(* The per-access path allocates nothing: no [Some] owners, no cost-model
   closures or option results, no boxed optional operands.  Each access
   is measured on its own, so unmeasured setup may allocate freely. *)

let n_guard = 10_000

(* Minor-heap words allocated while [f] runs. *)
let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

(* Words allocated by [n_guard] calls of [access i], each preceded by an
   unmeasured [setup i], beyond the measurement's own overhead. *)
let guarded_words ~setup ~access =
  let overhead = minor_words_during ignore in
  let words = ref 0 in
  for i = 1 to n_guard do
    setup i;
    words := !words + minor_words_during (fun () -> access i) - overhead
  done;
  !words

let test_access_allocation_free () =
  List.iter
    (fun pid ->
      let m = mem_on pid in
      let topo = Topology.of_platform pid in
      let classes = Latencies.distance_classes pid in
      let c1, c2 =
        Option.get
          (Topology.pair_at_distance topo
             (List.nth classes (List.length classes - 1)))
      in
      (* a requester holding no copy, for the Shared-line CAS *)
      let c3 =
        List.find (fun c -> c <> c1 && c <> c2)
          [ topo.Topology.n_cores - 1; topo.Topology.n_cores - 2 ]
      in
      let access a ~core op ~operand i =
        ignore
          (Memory.access_lat_in m ~core ~now:(i * 100_000) op a
             ~operand ~operand2:0 ~fetch:false)
      in
      let check kind ~setup ~access =
        check_int
          (Printf.sprintf "%s %s: minor words" (Arch.platform_name pid) kind)
          0
          (guarded_words ~setup ~access)
      in
      let a = Memory.alloc ~home_core:c1 m in
      Memory.force_state m ~holder:c1 Arch.Modified a;
      let no_setup _ = () in
      check "local load hit" ~setup:no_setup
        ~access:(fun i -> access a ~core:c1 Arch.Load ~operand:0 i);
      check "local store hit" ~setup:no_setup
        ~access:(fun i -> access a ~core:c1 Arch.Store ~operand:i i);
      check "local atomic hit" ~setup:no_setup
        ~access:(fun i -> access a ~core:c1 Arch.Fai ~operand:1 i);
      (* the same hits on a memory sampled into a metrics sink: each
         closes a sharer-gauge span 10 cycles long, within a handful of
         grid buckets, so it adds to keys already in the sink's table *)
      let sink = Ssync_metrics.Metrics.start () in
      let ms = mem_on pid in
      ignore (Ssync_metrics.Metrics.stop ());
      let b = Memory.alloc ~home_core:c1 ms in
      Memory.force_state ms ~holder:c1 Arch.Modified b;
      List.iteri
        (fun k (kind, op, operand) ->
          check (kind ^ ", metrics on") ~setup:no_setup ~access:(fun i ->
              ignore
                (Memory.access_lat_in ms ~core:c1
                   ~now:(((k + 1) * 1_000_000) + (i * 10))
                   op b ~operand:(operand i) ~operand2:0 ~fetch:false)))
        [
          ("local load hit", Arch.Load, Fun.const 0);
          ("local store hit", Arch.Store, Fun.id);
          ("local atomic hit", Arch.Fai, Fun.const 1);
        ];
      check_bool "the sharer gauge was sampled" true
        (Ssync_metrics.(Metrics.total sink ~kind:Metrics.k_line_sharers)
         >= 3 * n_guard * 10);
      Memory.dispose ms;
      check "far-pair Modified transfer" ~setup:no_setup ~access:(fun i ->
          access a ~core:(if i land 1 = 0 then c1 else c2) Arch.Store ~operand:i
            i);
      check "Shared-line CAS"
        ~setup:(fun _ -> Memory.force_state m ~holder:c1 ~second:c2 Arch.Shared a)
        ~access:(fun i ->
          ignore
            (Memory.access_lat_in m ~core:c3 ~now:(i * 100_000)
               Arch.Cas a ~operand:(Memory.peek m a) ~operand2:i ~fetch:false));
      Alcotest.(check string)
        "CAS invalidated the sharers" "Modified" (state_name m a);
      Memory.dispose m)
    Arch.paper_platform_ids

(* Setting up a line writes its table entry and allocates nothing.  A
   memory whose arrays come fresh (not from the recycling pool) shows
   it: creating five memories that are never disposed drains the pool. *)
let test_alloc_allocation_free () =
  let p = Platform.get Arch.Opteron in
  let ms = List.init 5 (fun _ -> Memory.create p) in
  let m = List.nth ms 4 in
  let words =
    minor_words_during (fun () ->
        for _ = 1 to 1_000 do
          ignore (Memory.alloc m)
        done)
    - minor_words_during ignore
  in
  check_int "1,000 allocs on fresh arrays: minor words" 0 words;
  check_int "lines" 1_000 (Memory.n_lines m)

(* Pop + push at a steady depth, 1 and 16 events and 200 (past the
   initial capacity, grown during the unmeasured fill), as two calls and
   as one [push_pop_into]; an ordered queue pushes prebuilt nodes,
   same-time ones included, so its sifts call [precedes]. *)
let test_event_queue_allocation_free () =
  let module Q = Ssync_engine.Event_queue in
  List.iter
    (fun depth ->
      let q = Q.create () and p = Q.make_popped () in
      for i = 0 to depth - 1 do
        Q.push q ~time:i ignore
      done;
      let words =
        minor_words_during (fun () ->
            for i = 1 to n_guard do
              ignore (Q.pop_into q p);
              Q.push q ~time:(p.Q.p_time + 1 + (i land 15)) p.Q.p_run
            done)
      in
      check_int
        (Printf.sprintf "push + pop at depth %d: minor words" depth)
        0 words;
      let words =
        minor_words_during (fun () ->
            for i = 1 to n_guard do
              Q.push_pop_into q ~time:(p.Q.p_time + 1 + (i land 15)) p.Q.p_run p
            done)
      in
      check_int
        (Printf.sprintf "push_pop_into at depth %d: minor words" depth)
        0 words;
      let q = Q.create ~ordered:true () in
      let nodes =
        Array.init (depth + n_guard) (fun k ->
            Q.child q ~time:((k / 2) + (k land 15)))
      in
      for k = 0 to depth - 1 do
        Q.push_node q nodes.(k) ignore
      done;
      let words =
        minor_words_during (fun () ->
            for k = depth to depth + n_guard - 1 do
              ignore (Q.pop_into q p);
              Q.push_node q nodes.(k) p.Q.p_run
            done)
      in
      check_int
        (Printf.sprintf "ordered push + pop at depth %d: minor words" depth)
        0 words)
    [ 1; 16; 200 ]

(* A Shared line needs a second core: with [second = holder] the
   holder's two loads leave the line Exclusive, and relabelling it
   Shared would leave an owner and no sharers.  The call must fail
   before it touches the line. *)
let test_force_state_second_is_holder () =
  List.iter
    (fun (pid, st) ->
      let m = mem_on pid in
      let a = Memory.alloc m in
      Memory.force_state m ~holder:3 Arch.Modified a;
      Alcotest.check_raises
        (Printf.sprintf "%s %s" (Arch.platform_name pid) (Arch.cstate_name st))
        (Invalid_argument "Memory.force_state: second = holder")
        (fun () -> Memory.force_state m ~holder:3 ~second:3 st a);
      Alcotest.(check string) "line untouched" "Modified" (state_name m a))
    [ (Arch.Xeon, Arch.Shared); (Arch.Opteron, Arch.Shared);
      (Arch.Opteron, Arch.Owned) ]

let suite =
  [
    Alcotest.test_case "first load fills Exclusive" `Quick
      test_load_fills_exclusive;
    Alcotest.test_case "MOESI keeps Owned on Opteron" `Quick
      test_moesi_owned_on_opteron;
    Alcotest.test_case "MESI downgrades to Shared on Xeon" `Quick
      test_mesi_shared_on_xeon;
    Alcotest.test_case "store invalidates sharers" `Quick
      test_store_invalidates_sharers;
    Alcotest.test_case "CAS semantics" `Quick test_cas_semantics;
    Alcotest.test_case "FAI/TAS/SWAP semantics" `Quick
      test_fai_tas_swap_semantics;
    Alcotest.test_case "local spin is cheap" `Quick test_local_spin_is_cheap;
    Alcotest.test_case "contention serializes" `Quick
      test_contention_serializes;
    Alcotest.test_case "cross-socket dearer than intra" `Quick
      test_cross_socket_more_expensive;
    Alcotest.test_case "force_state reaches all states" `Quick
      test_force_state;
    QCheck_alcotest.to_alcotest qcheck_protocol_invariants;
    QCheck_alcotest.to_alcotest qcheck_latency_monotone_queueing;
    QCheck_alcotest.to_alcotest qcheck_local_hit_path;
    Alcotest.test_case "access hot path allocates nothing" `Quick
      test_access_allocation_free;
    Alcotest.test_case "event queue allocates nothing" `Quick
      test_event_queue_allocation_free;
    QCheck_alcotest.to_alcotest qcheck_flat_table_oracle;
    Alcotest.test_case "line setup allocates nothing" `Quick
      test_alloc_allocation_free;
    Alcotest.test_case "force_state rejects second = holder" `Quick
      test_force_state_second_is_holder;
  ]
