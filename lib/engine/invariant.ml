(* Trace-fed invariant checker: replays a run's structured trace and
   asserts the safety/liveness properties every lock in the suite must
   preserve, including under crash-stop faults.

   All thread ids here are ENGINE tids (spawn order): that is what the
   engine, the memory model and the instrumented lock wrappers stamp on
   events, and what [Sim.tid_crashed] speaks.  Callers holding
   workload-indexed data (e.g. [Harness.result.completed]) must map
   through [Harness.spawn_order] first.

   Checked properties:

   - Mutual exclusion, strict.  At most one thread holds each lock at
     a time.  The instrumented wrapper emits [E_rel] at release ENTRY
     and every grant is produced by an operation issued inside the
     predecessor's release, so in the ring a lock's release always
     precedes its successor's [E_acq]: any grant that finds a live
     holder outstanding is a genuine double grant.  A grant past a
     crash-stopped holder is a recovery steal, counted, not flagged
     (the corpse's release will never arrive).

   - Bounded overtaking (FIFO locks only).  A thread that started
     waiting before another must not be overtaken more than [slack]
     times; queue locks grant in arrival order, so unbounded overtaking
     there is a lost queue position (e.g. a botched dead-node
     excision).  [E_wait] is emitted before the queue-entry operation
     issues, so two near-simultaneous waiters can enqueue in either
     order: a slack of the thread count + 3 absorbs that and still
     catches systematic queue-jumping.  Crash-stopped threads are
     exempt (excising a corpse legitimately reorders its neighbours).

   - No lost wakeups.  A thread whose last park has no matching wake
     must have crashed or completed; otherwise a releaser forgot it
     (the blocking lock's missed-wakeup bug class).

   - Post-recovery liveness.  Every spawned thread that did not crash
     must have completed its body: survivors of a crash must not be
     left wedged on state the corpse held. *)

module Trace = Ssync_trace.Trace

type kind = Mutual_exclusion | Overtaking | Lost_wakeup | Liveness

let kind_name = function
  | Mutual_exclusion -> "mutual-exclusion"
  | Overtaking -> "bounded-overtaking"
  | Lost_wakeup -> "lost-wakeup"
  | Liveness -> "liveness"

type violation = {
  v_kind : kind;
  v_lock : string; (* "" when not about a specific lock *)
  v_tid : int;
  v_ts : int;
  v_detail : string;
}

type report = {
  violations : violation list;
  acquisitions : int;
  releases : int;
  steals : int; (* grants that recovered past a crash-stopped holder *)
  max_overtakes : int; (* worst overtaking any live FIFO waiter saw *)
  crashed : int list; (* engine tids crash-stopped during the run *)
  spawned : int list;
  truncated : bool; (* ring overflowed: early events were dropped *)
}

let ok r = r.violations = []

(* The locks whose plain protocol grants in strict arrival order.
   TAS/TTAS are competitive (no order), MUTEX's futex queue is FIFO
   per wake batch but its fast path barges, and the hierarchical
   cohorts trade global FIFO for locality by design. *)
let fifo_lock name =
  match name with
  | "TICKET" | "TICKET-SPIN" | "TICKET-PFW" | "ARRAY" | "MCS" | "CLH" -> true
  | _ -> false

type lock_state = {
  mutable outstanding : (int * int) list; (* (tid, acq ts), newest first *)
  wait_since : (int, int) Hashtbl.t; (* tid -> E_wait ts *)
  overtaken : (int, int) Hashtbl.t; (* tid -> times overtaken while waiting *)
}

let check ~(completed : int -> bool) (tr : Trace.t) : report =
  let locks : (int, lock_state) Hashtbl.t = Hashtbl.create 8 in
  let state lk =
    match Hashtbl.find_opt locks lk with
    | Some s -> s
    | None ->
        let s =
          {
            outstanding = [];
            wait_since = Hashtbl.create 16;
            overtaken = Hashtbl.create 16;
          }
        in
        Hashtbl.add locks lk s;
        s
  in
  let crash_ts : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let crashed tid = Hashtbl.mem crash_ts tid in
  let parked : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let spawned = ref [] in
  let tids = Hashtbl.create 16 in
  let violations = ref [] in
  let acqs = ref 0 and rels = ref 0 and steals = ref 0 in
  let flag v = violations := v :: !violations in
  Trace.iter tr (fun { Trace.ts; ev } ->
      match ev with
      | Trace.E_thread { tid; _ } ->
          spawned := tid :: !spawned;
          Hashtbl.replace tids tid ()
      | Trace.E_fault { tid; kind = Trace.Crash; _ } ->
          if not (Hashtbl.mem crash_ts tid) then Hashtbl.add crash_ts tid ts
      | Trace.E_fault _ -> ()
      | Trace.E_wait { tid; lock } ->
          Hashtbl.replace tids tid ();
          let s = state lock in
          Hashtbl.replace s.wait_since tid ts
      | Trace.E_acq { tid; lock; _ } ->
          Hashtbl.replace tids tid ();
          incr acqs;
          let s = state lock in
          (* grants past a crash-stopped holder are recovery steals *)
          let live, dead =
            List.partition
              (fun (h, _) ->
                match Hashtbl.find_opt crash_ts h with
                | Some ct -> ct > ts
                | None -> true)
              s.outstanding
          in
          steals := !steals + List.length dead;
          s.outstanding <- live;
          if s.outstanding <> [] then
            flag
              {
                v_kind = Mutual_exclusion;
                v_lock = Trace.lock_name tr lock;
                v_tid = tid;
                v_ts = ts;
                v_detail =
                  Printf.sprintf
                    "grant to t%d with %d live holders outstanding (%s)" tid
                    (List.length s.outstanding)
                    (String.concat ","
                       (List.map
                          (fun (h, at) -> Printf.sprintf "t%d@%d" h at)
                          s.outstanding));
              };
          s.outstanding <- (tid, ts) :: s.outstanding;
          (* everyone who started waiting before this grant's waiter and
             is still waiting has been overtaken once *)
          let my_wait =
            match Hashtbl.find_opt s.wait_since tid with
            | Some w -> w
            | None -> ts
          in
          Hashtbl.remove s.wait_since tid;
          Hashtbl.iter
            (fun w w_ts ->
              if w_ts < my_wait then
                Hashtbl.replace s.overtaken w
                  (1 + Option.value ~default:0 (Hashtbl.find_opt s.overtaken w)))
            s.wait_since;
          Hashtbl.remove s.overtaken tid
      | Trace.E_rel { tid; lock; _ } ->
          incr rels;
          let s = state lock in
          if List.mem_assoc tid s.outstanding then
            s.outstanding <- List.remove_assoc tid s.outstanding
          else
            flag
              {
                v_kind = Mutual_exclusion;
                v_lock = Trace.lock_name tr lock;
                v_tid = tid;
                v_ts = ts;
                v_detail =
                  Printf.sprintf "t%d released without holding" tid;
              }
      | Trace.E_park { tid; _ } -> Hashtbl.replace parked tid ts
      | Trace.E_wake { tid; _ } -> Hashtbl.remove parked tid
      | Trace.E_xfer _ | Trace.E_send _ | Trace.E_recv _ -> ());
  (* bounded overtaking, judged after the full replay so the slack can
     follow the observed thread count *)
  let slack = Hashtbl.length tids + 3 in
  let max_ot = ref 0 in
  Hashtbl.iter
    (fun lk s ->
      Hashtbl.iter
        (fun tid n ->
          if not (crashed tid) then begin
            if n > !max_ot then max_ot := n;
            if fifo_lock (Trace.lock_name tr lk) && n > slack then
              flag
                {
                  v_kind = Overtaking;
                  v_lock = Trace.lock_name tr lk;
                  v_tid = tid;
                  v_ts = Option.value ~default:0
                      (Hashtbl.find_opt s.wait_since tid);
                  v_detail =
                    Printf.sprintf "t%d overtaken %d times (slack %d)" tid n
                      slack;
                }
          end)
        s.overtaken)
    locks;
  (* lost wakeups: parked, never woken, neither crashed nor done *)
  Hashtbl.iter
    (fun tid ts ->
      if not (crashed tid) && not (completed tid) then
        flag
          {
            v_kind = Lost_wakeup;
            v_lock = "";
            v_tid = tid;
            v_ts = ts;
            v_detail =
              Printf.sprintf "t%d parked at %d and was never woken" tid ts;
          })
    parked;
  (* post-recovery liveness: non-crashed spawned threads completed *)
  List.iter
    (fun tid ->
      if not (crashed tid) && not (completed tid) then
        flag
          {
            v_kind = Liveness;
            v_lock = "";
            v_tid = tid;
            v_ts = 0;
            v_detail =
              Printf.sprintf
                "t%d survived every fault but never completed its body" tid;
          })
    !spawned;
  {
    violations = List.rev !violations;
    acquisitions = !acqs;
    releases = !rels;
    steals = !steals;
    max_overtakes = !max_ot;
    crashed =
      List.sort compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) crash_ts []);
    spawned = List.sort compare !spawned;
    truncated = Trace.dropped tr > 0;
  }

let pp_violation v =
  Printf.sprintf "[%s]%s t%d @%d: %s" (kind_name v.v_kind)
    (if v.v_lock = "" then "" else " " ^ v.v_lock)
    v.v_tid v.v_ts v.v_detail
