(* Factory over the whole simulated libslock: the nine algorithms the
   paper evaluates plus the two extra ticket variants of Figure 3. *)

open Ssync_platform

type algo =
  | Tas
  | Ttas
  | Ticket
  | Array_lock
  | Mutex
  | Mcs
  | Clh
  | Hclh
  | Hticket
  | Ticket_spin      (* Figure 3: non-optimized ticket *)
  | Ticket_prefetchw (* Figure 3: backoff + prefetchw *)

(* The nine algorithms of Figures 5-8, in the paper's legend order. *)
let paper_algos =
  [ Tas; Ttas; Ticket; Array_lock; Mutex; Mcs; Clh; Hclh; Hticket ]

(* Hierarchical locks are only meaningful on the multi-sockets; the
   paper omits them on the single-sockets ("given the uniform structure
   of the platforms, we do not use hierarchical locks on the
   single-socket machines"). *)
let algos_for (p : Platform.t) =
  match p.Platform.id with
  | Arch.Opteron | Arch.Xeon | Arch.Opteron2 | Arch.Xeon2 -> paper_algos
  | Arch.Niagara | Arch.Tilera ->
      List.filter (fun a -> a <> Hclh && a <> Hticket) paper_algos

let name = function
  | Tas -> "TAS"
  | Ttas -> "TTAS"
  | Ticket -> "TICKET"
  | Array_lock -> "ARRAY"
  | Mutex -> "MUTEX"
  | Mcs -> "MCS"
  | Clh -> "CLH"
  | Hclh -> "HCLH"
  | Hticket -> "HTICKET"
  | Ticket_spin -> "TICKET-SPIN"
  | Ticket_prefetchw -> "TICKET-PFW"

let of_string s =
  match String.uppercase_ascii s with
  | "TAS" -> Some Tas
  | "TTAS" -> Some Ttas
  | "TICKET" -> Some Ticket
  | "ARRAY" -> Some Array_lock
  | "MUTEX" -> Some Mutex
  | "MCS" -> Some Mcs
  | "CLH" -> Some Clh
  | "HCLH" -> Some Hclh
  | "HTICKET" -> Some Hticket
  | "TICKET-SPIN" -> Some Ticket_spin
  | "TICKET-PFW" -> Some Ticket_prefetchw
  | _ -> None

(* Proportional-backoff base of the ticket lock, tuned per platform to
   the typical lock-handoff time (the paper tunes its spin loops per
   platform the same way, section 4.1). *)
let ticket_backoff_base (p : Platform.t) =
  match p.Platform.id with
  | Arch.Opteron | Arch.Opteron2 -> 1400
  | Arch.Xeon | Arch.Xeon2 -> 1200
  | Arch.Niagara -> 90
  | Arch.Tilera -> 220

(* Wrap a lock with trace instrumentation: wait/acquire/release events
   timed from inside the acquiring thread, with each acquisition's
   handoff classified by the distance from the previous holder's core
   (the profiler's Table 2 mirror).  Only built when a trace sink is
   installed at creation time, so untraced runs never see the
   indirection.  The extra [Sim.now]/[Sim.self_core] calls are pure
   effects that advance no virtual time and consume no draws, so a
   traced run's timestamps are identical to an untraced one. *)
let instrumented tr (platform : Platform.t) ~n_threads (l : Lock_type.t) :
    Lock_type.t =
  let module Trace = Ssync_trace.Trace in
  let open Ssync_engine in
  let id = Trace.new_lock tr l.Lock_type.name in
  let topo = platform.Platform.topo in
  let holder_core = ref (-1) in
  let acquired_at = Array.make (max 1 n_threads) 0 in
  (* Events carry the ENGINE thread id ([Sim.self_tid], spawn order),
     not the wrapper's [~tid] argument (the workload's own numbering,
     which the harness's hashed spawn order permutes): the memory model
     and the parking sites tag their events with the engine id, and a
     Chrome track must hold ONE thread's events or its timestamps stop
     being monotone. *)
  let note_acquire ~t0 =
    let t1 = Sim.now () in
    let tid = Sim.self_tid () in
    let core = Sim.self_core () in
    let handoff =
      if !holder_core < 0 then -1
      else
        Cost_model.rank_of_class
          (Topology.distance_class topo !holder_core core)
    in
    holder_core := core;
    if tid >= 0 && tid < Array.length acquired_at then acquired_at.(tid) <- t1;
    Trace.acq tr ~ts:t1 ~tid ~lock:id ~wait:(t1 - t0) ~handoff
  in
  (* The release is recorded at release ENTRY, before the underlying
     release runs: the critical section ends here ([held] is pure CS
     time, not release-protocol time), and any successor's grant is
     produced by an effect issued inside the release — so in the trace
     ring a lock's release always precedes the next grant, which lets the
     invariant checker assert strict mutual exclusion.  (Emitting on
     return breaks that order for handoff protocols with post-grant
     work, e.g. MUTEX's wake syscall.) *)
  let note_release () =
    let t1 = Sim.now () in
    let etid = Sim.self_tid () in
    let held =
      if etid >= 0 && etid < Array.length acquired_at then
        t1 - acquired_at.(etid)
      else 0
    in
    Trace.rel tr ~ts:t1 ~tid:etid ~lock:id ~held
  in
  {
    Lock_type.name = l.Lock_type.name;
    acquire =
      (fun ~tid ->
        let t0 = Sim.now () in
        Trace.wait tr ~ts:t0 ~tid:(Sim.self_tid ()) ~lock:id;
        l.Lock_type.acquire ~tid;
        note_acquire ~t0);
    release =
      (fun ~tid ->
        note_release ();
        l.Lock_type.release ~tid);
    try_acquire =
      (fun ~tid ->
        let t0 = Sim.now () in
        if l.Lock_type.try_acquire ~tid then begin
          note_acquire ~t0;
          true
        end
        else false);
    robust =
      lazy
        (let r = Lazy.force l.Lock_type.robust in
         {
           Lock_type.acquire_robust =
             (fun ~tid ->
               let t0 = Sim.now () in
               Trace.wait tr ~ts:t0 ~tid:(Sim.self_tid ()) ~lock:id;
               let g = r.Lock_type.acquire_robust ~tid in
               note_acquire ~t0;
               g);
           release_robust =
             (fun ~tid ->
               note_release ();
               r.Lock_type.release_robust ~tid);
         });
    rstats = l.Lock_type.rstats;
  }

(* Instantiate [algo] in simulated memory.  [n_threads] bounds the
   thread ids that will use the lock; [home_core] places the lock's
   global lines and defaults to core 0, where every platform places
   thread 0 (the paper's first-participant policy).  Simulated words are
   allocated here; the robust layer waits for the first robust call
   (see [Lock_type]). *)
let create ?(home_core = 0) mem (platform : Platform.t) ~n_threads algo :
    Lock_type.t =
  let place tid = Platform.place platform tid in
  let base = ticket_backoff_base platform in
  let lock =
    match algo with
    | Tas -> Spinlocks.tas mem ~home_core ~n_threads
    | Ttas -> Spinlocks.ttas mem ~home_core ~n_threads
    | Ticket -> Spinlocks.ticket ~backoff_base:base mem ~home_core ~n_threads
    | Ticket_spin ->
        Spinlocks.ticket ~variant:Spinlocks.Ticket_spin mem ~home_core
          ~n_threads
    | Ticket_prefetchw ->
        Spinlocks.ticket ~variant:Spinlocks.Ticket_prefetchw
          ~backoff_base:base mem ~home_core ~n_threads
    | Array_lock ->
        Spinlocks.array_lock mem ~home_core ~n_slots:(max 2 n_threads)
          ~n_threads
    | Mutex -> Spinlocks.mutex mem ~home_core ~n_threads
    | Mcs -> Queue_locks.mcs mem ~home_core ~n_threads ~place
    | Clh -> Queue_locks.clh mem ~home_core ~n_threads ~place
    | Hclh -> Hierarchical.hclh mem platform ~home_core ~n_threads ~place
    | Hticket -> Hierarchical.hticket mem platform ~home_core ~n_threads ~place
  in
  match Ssync_trace.Trace.current () with
  | None -> lock
  | Some tr -> instrumented tr platform ~n_threads lock
