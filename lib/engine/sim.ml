(* The discrete-event simulation engine.

   Simulated threads are ordinary OCaml functions running as coroutines
   on effect-handler fibers.  A thread's own operations (memory accesses,
   pauses, clock and identity queries) are plain function calls on the
   thread's stack: each charges its virtual-time cost against the
   coherent memory model and, when nothing else can run before it
   completes, simply returns — direct-run.  Only an operation whose
   completion must wait for the event queue performs an effect, which
   suspends the thread until the queue reaches the completion time.  This
   lets the lock/message-passing algorithms be written in direct style,
   exactly as their native counterparts.

   The engine is serial: one event queue, one virtual clock, one memory.
   Parallelism comes from running many independent simulations at once
   ([Pool]), not from splitting one simulation across domains.

   Waits run on the waiting thread's stack too.  A spin primitive
   ({!spin_load} and friends) is the literal loop "pause [poll], then
   probe, until the result differs from [while_]", built from the same
   charge-then-complete steps as [load] and [pause].  Once the next
   probe would be an inert local hit, the thread parks instead: it
   suspends with no resumption scheduled, on the line's wait list
   inside the memory model, and the next real access to the line wakes
   it on the exact virtual-time grid the poll loop would have used.
   Simulated timestamps are preserved; only the O(poll-iterations)
   event churn collapses to O(1).  Under jitter and preemption faults a
   parked waiter draws its elided polls' faults ahead from its own
   stream and wakes at the first poll whose draws fire ([exact_park]);
   the queue then orders same-time events by ancestry, so the schedule
   is the polled one to the event.  Crash specs keep literal
   pause/probe stepping.  Barriers and parkers suspend the same way,
   and every waker resumes the thread through its one queued runner,
   so [E_suspend] is the engine's only effect.

   Two robustness layers sit on top of the pure engine:

   - Fault injection ([Fault.spec], strictly opt-in): every scheduling
     point — the completion of a memory op or pause — may be perturbed
     by deterministic, seeded preemption/jitter draws, and threads may
     crash-stop.  With [Fault.none] (the default) no draws are consumed
     and runs are bit-identical to the fault-free engine.

   - A progress watchdog: the engine records per-thread last-progress
     timestamps, so [run_health] can report *why* a run ended —
     [Completed] (all threads returned) versus [Stalled] (live threads
     remained at the [until] backstop or deadlocked on an empty queue)
     — instead of silently discarding the tail of the schedule.

   {2 Virtual-time metrics}

   With a [Metrics] sink installed (the [--metrics] / heatmap paths)
   the engine charges thread run-state gauges — how many simulated
   threads were runnable, spinning or parked on each virtual-time
   bucket — plus park/wake event counts into the sink, alongside the
   coherence-level samples the memory model writes there.  Each sample
   goes into the sink as it is taken; [run_health] closes the open
   run-state spans when a run ends. *)

open Ssync_platform
open Ssync_coherence
module Rng = Ssync_workload.Rng
module Trace = Ssync_trace.Trace
module Metrics = Ssync_metrics.Metrics

(* Per-thread bookkeeping for faults and the watchdog.  [pend_ik] holds
   the thread's suspended continuation between its suspension and the
   event that resumes it, while [pend] is set; [run_ik], a closure
   allocated once per thread, continues it, so every resumption — a
   step's completion or a wake — schedules that one runner instead of
   allocating a fresh closure.  A coroutine has at most one pending
   resumption, so one slot suffices.  [pend] is a bool, not a sentinel
   continuation, so clearing it needs no write barrier. *)
type thread_state = {
  sim : t;
  me : thread_state option;
      (* [Some] of this record, built once: what the current-thread
         cell holds while the thread runs *)
  tid : int;
  core : int;
  rng : Rng.t; (* this thread's private fault stream *)
  crash_at : int; (* -1 = never *)
  mutable last_progress : int;
  mutable finished : bool;
  mutable crashed : bool;
  mutable pend_ik : (int, unit) Effect.Deep.continuation;
  mutable pend : bool;
  mutable pend_iv : int;
  mutable pend_at : int;
      (* when [E_suspend] resumes the thread: the completion time of
         its own step, or -1 for a wait some waker ends *)
  run_ik : unit -> unit;
  mutable spin_addr : int; (* the word a fault-free park polls *)
  replay : int -> unit; (* [Memory.waiter.w_replay] of those parks *)
  mutable m_state : int;
      (* metrics run-state: 0 runnable / 1 spinning / 2 parked /
         3 dead — codes chosen so [Metrics.k_runnable + m_state] is
         the gauge kind.  Maintained only while metrics are on. *)
  mutable m_since : int; (* virtual time the current run-state began *)
  mutable xp : exact; (* exact parking state; [no_exact] when unused *)
}

(* A thread's exact park (see [exact_park]), reused from park to park:
   only the waiter, the chain and the wake nodes are allocated per
   park.  [x_w] is the park in progress or [Memory.no_waiter]. *)
and exact = {
  x_scan : Rng.t; (* scratch copy of the fault stream for look-ahead *)
  mutable x_w : Memory.waiter;
  mutable x_parked : bool;
      (* no replay yet: [x_w]'s polls run on to the scan's stop *)
  mutable x_chain : Event_queue.chain; (* its elided polls *)
  mutable x_wake : Event_queue.node; (* its queued wake *)
  mutable x_stop : int; (* the time of the step [x_wake] runs *)
  x_tie : int -> bool; (* [Memory.waiter] callbacks *)
  x_replay : int -> unit;
}

(* Cumulative engine counters for the benchmark harness's perf report.
   Domain-local: each domain accumulates the simulations it ran itself,
   so concurrent sims never race on the totals and a parallel harness
   can attribute counters per job by snapshotting around it in the
   executing domain. *)
and counters = {
  mutable c_events : int;
  mutable c_queued : int;
  mutable c_parks : int;
  mutable c_wakeups : int;
  mutable c_elided : int;
  mutable c_link_queued : int;
  mutable c_sim_cycles : int;
}

and t = {
  platform : Platform.t;
  mem : Memory.t;
  q : Event_queue.t;
  popped : Event_queue.popped; (* preallocated pop-out cell *)
  mutable now : int; (* the virtual clock *)
  mutable fuel : int; (* consecutive direct-run steps since last pop *)
  mutable events : int; (* logical resumptions: pops + direct-runs *)
  mutable queued : int; (* pops *)
  mutable stash_at : int;
  mutable stash_tid : int;
      (* the completion of the running thread's own step, left at
         [stash_at] for the run loop to push and pop in one sift; -1
         when none *)
  mutable runners : (unit -> unit) array; (* each thread's [run_ik], by tid *)
  mutable live : int;
  mutable parks : int;
  mutable wakeups : int;
  mutable preempt : int;
  mutable jitter : int;
  mutable spawned : int;
  faults : Fault.spec;
  faults_active : bool;
  parking : bool; (* event-driven waiter wakeup enabled? *)
  spins_park : bool; (* [parking] and no crash spec: spin waits park *)
  exact : bool;
      (* spin waits park exactly under fault draws: the queue orders
         same-time events by ancestry ([Event_queue.precedes]) and a
         parked waiter draws its elided polls' faults ahead *)
  tstates : (int, thread_state) Hashtbl.t;
  mutable crashed_tids : int list; (* reversed *)
  cum : counters; (* the creating domain's cumulative totals *)
  mutable booked_lq : int;
      (* [Stats.link_queued_cycles] already booked into
         [cum.c_link_queued]: each run books the delta since the
         previous one, so accesses made between runs (workload setup)
         are booked once, by the next run *)
  mutable run_until : int; (* current run's [until] backstop *)
  trace : Trace.t option;
      (* the domain's trace sink, cached at creation time (zero
         overhead when off: one option match per hook site) *)
  macc : Metrics.t option;
      (* the domain's metrics sink, cached likewise *)
  mutable cell : cell;
      (* the running domain's current-thread cell, captured at run
         start so the queue's runners need no domain-local lookup *)
}

(* Which simulated thread the domain is running: [None] outside every
   thread.  A thread's own operations find their thread — and through
   it their simulation — here.  The engine sets it before it continues
   a thread's fiber, writing only when the thread changes, and
   [run_health] restores it on the way out, so no finished simulation
   stays reachable from the domain. *)
and cell = { mutable cur : thread_state option }

let counters_key : counters Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        c_events = 0;
        c_queued = 0;
        c_parks = 0;
        c_wakeups = 0;
        c_elided = 0;
        c_link_queued = 0;
        c_sim_cycles = 0;
      })

let counters () = Domain.DLS.get counters_key
let cell_key : cell Domain.DLS.key = Domain.DLS.new_key (fun () -> { cur = None })

(* A barrier's waiters are suspended threads, latest arrival first. *)
type barrier = {
  mutable expected : int;
  mutable arrived : int;
  mutable waiters : thread_state list;
}

(* A single-waiter parking spot for non-memory waiting (e.g. the
   Tilera's hardware message queues): the waiter parks with its poll
   period; [unpark] wakes it at the first poll-grid point after the
   state change, exactly where the poll loop would have noticed. *)
type parker = {
  mutable seat : thread_state option;
  mutable seat_at : int;
  mutable seat_poll : int;
}

(* The one effect: a thread leaves its own stack to wait, resumed at
   [pend_at] with [pend_iv], or by a waker when [pend_at] is -1. *)
type _ Effect.t += E_suspend : int Effect.t

exception Simulation_runaway of int

(* A continuation captured from a fiber that is never resumed: what
   [pend_ik] holds before the thread first suspends.  A [pend_ik] of
   type [option] would box a [Some] at every suspension. *)
let no_k : (int, unit) Effect.Deep.continuation =
  let k : (int, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with
    (fun () -> ignore (Effect.perform E_suspend))
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_suspend ->
              Some (fun (c : (a, unit) Effect.Deep.continuation) -> k := Some c)
          | _ -> None);
    };
  Option.get !k

let create ?(faults = Fault.none) ?(parking = true) platform =
  let faults = Fault.validate faults in
  let mem = Memory.create platform in
  let exact =
    parking && Fault.parkable faults
    && (faults.Fault.preempt_prob > 0. || faults.Fault.jitter_prob > 0.)
  in
  let q = Event_queue.create ~ordered:exact () in
  {
    platform;
    mem;
    q;
    popped = Event_queue.make_popped ();
    now = 0;
    fuel = 0;
    events = 0;
    queued = 0;
    stash_at = -1;
    stash_tid = 0;
    runners = [||];
    live = 0;
    parks = 0;
    wakeups = 0;
    preempt = 0;
    jitter = 0;
    spawned = 0;
    faults;
    faults_active = not (Fault.is_none faults);
    parking;
    spins_park = parking && Fault.parkable faults;
    exact;
    tstates = Hashtbl.create 64;
    crashed_tids = [];
    cum = counters ();
    booked_lq = 0;
    run_until = max_int;
    trace = Trace.current ();
    macc = Metrics.current ();
    cell = Domain.DLS.get cell_key;
  }

let memory t = t.mem
let platform t = t.platform

(* Spin waits park unless a crash spec is active (crash specs poll).
   Without fault draws no probe consumes one, so parking needs no
   look-ahead; under jitter or preemption a parked waiter draws its
   elided polls' faults ahead ([exact_park]).  Parkers and the NIC
   channel's grid shortcut poll literally under every fault spec
   ([parker_driven]). *)
let parker_driven t = t.spins_park && not t.exact

(* ---------------------- engine-side metrics ------------------------ *)

(* Thread run-state codes: chosen so [Metrics.k_runnable + state] is
   the gauge kind for the three live states.  [m_dead] spans are never
   charged. *)
let m_runnable = 0
let m_spinning = 1
let m_parked = 2
let m_dead = 3

(* Close the thread's current run-state span at [at] and enter state
   [s].  No-op when metrics are off. *)
let m_trans t st ~at s =
  match t.macc with
  | None -> ()
  | Some m ->
      if st.m_state < m_dead then
        Metrics.span m
          ~kind:(Metrics.k_runnable + st.m_state)
          ~id:0 ~t0:st.m_since ~t1:at ~weight:1;
      st.m_state <- s;
      if at > st.m_since then st.m_since <- at

let m_bump t ~kind ~ts =
  match t.macc with
  | None -> ()
  | Some m -> Metrics.bump m ~kind ~id:0 ~ts 1

(* Every engine push is at an absolute time at or after the affected
   thread's logical now; exactly parking simulations give it the next
   push of the running step's node.  The exact case stays out of line
   so the common one inlines into its callers. *)
let[@inline never] sched_exact t ~at run =
  Event_queue.push_node t.q (Event_queue.child t.q ~time:at) run

let[@inline] sched t ~at run =
  if t.exact then sched_exact t ~at run else Event_queue.push t.q ~time:at run

(* ------------------------------------------------------------------ *)
(* Fault hooks. *)

let trace_fault t st kind cycles =
  match t.trace with
  | Some tr ->
      Trace.fault tr ~ts:t.now ~tid:st.tid ~kind ~cycles
  | None -> ()

(* Extra completion delay at a scheduling point: latency jitter (memory
   ops only) plus preemption — the thread is descheduled for the drawn
   duration, whatever it holds staying held.  Draws come from the
   thread's private stream, so faults in one thread never perturb
   another thread's draws. *)
let fault_draws t st ~mem_op =
  let f = t.faults in
  let extra = ref 0 in
  if mem_op && f.Fault.jitter_prob > 0.
     && Rng.float st.rng < f.Fault.jitter_prob
  then begin
    let cy = Fault.sample st.rng f.Fault.jitter_cycles in
    extra := !extra + cy;
    t.jitter <- t.jitter + 1;
    trace_fault t st Trace.Jitter cy
  end;
  if f.Fault.preempt_prob > 0. && Rng.float st.rng < f.Fault.preempt_prob
  then begin
    let cy = Fault.sample st.rng f.Fault.preempt_cycles in
    extra := !extra + cy;
    t.preempt <- t.preempt + 1;
    trace_fault t st Trace.Preempt cy
  end;
  !extra

(* Small enough to inline: the fault-free path pays one test. *)
let fault_extra t st ~mem_op =
  if t.faults_active then fault_draws t st ~mem_op else 0

(* Make [st] the domain's current thread, ahead of continuing its fiber.
   Consecutive steps of one thread are the common case, so the cell is
   written only when the thread changes. *)
let enter t st =
  let c = t.cell in
  if c.cur != st.me then c.cur <- st.me

(* [st] crash-stops at [at]: it is simply never resumed — no
   unwinding, no cleanup; whatever it holds stays held, which is what
   crash-stop means. *)
let crash_stop t st ~at =
  sched t ~at (fun () ->
      if not st.crashed then begin
        st.crashed <- true;
        t.crashed_tids <- st.tid :: t.crashed_tids;
        t.live <- t.live - 1;
        m_trans t st ~at:t.now m_dead;
        trace_fault t st Trace.Crash 0
      end)

(* Direct-run: the completion of a thread's own step may skip the event
   queue entirely — the thread simply carries on — when nothing can
   observe the difference: the thread cannot crash, the completion time
   does not cross the run's [until] backstop (the queue would have
   dropped it), and it falls *strictly* before every queued event (so
   no other event could interleave, and same-time FIFO order is
   preserved).  Fault draws happen at the step's call site either way.
   Exactly parked waiters' elided polls are not queued, but they are
   inert and their fault-firing steps are.  Timestamps,
   access order and results are exactly those of the queued schedule;
   only the per-operation queue round trip disappears.  Both a queue pop
   and a direct-run count as one logical resumption in [events], so the
   events counter does not depend on which path a resumption took.
   [fuel], reset at every real event pop, bounds consecutive direct-run
   steps, so a thread that never leaves its stack still reaches the run
   loop's [max_events] check. *)
let direct_fuel_max = 1000

(* An exact simulation's direct-run step: the node the queue would have
   run, in run order. *)
let[@inline never] direct_exact t ~at =
  Event_queue.ran t.q (Event_queue.child t.q ~time:at) ~rank:t.events

let can_direct t ~at =
  at <= t.run_until
  && t.fuel < direct_fuel_max
  && at < Event_queue.next_time t.q

(* Book [st]'s step completing at [at] as a direct-run resumption, if it
   may be one; the caller then carries the thread on itself. *)
let try_direct t st ~at =
  st.crash_at < 0
  && can_direct t ~at
  && begin
       t.fuel <- t.fuel + 1;
       t.events <- t.events + 1;
       t.now <- at;
       st.last_progress <- at;
       if t.exact then direct_exact t ~at;
       true
     end

(* Resume the suspended [st] at [at] through its runner, which updates
   [last_progress] itself: a step's queued completion, a fault-free
   park's replay, a barrier release and an [unpark] all take this path.
   When the thread's crash time falls first, the crash is queued
   instead, at the crash time itself, so it is recorded even when the
   never-to-happen resumption would fall past the [until] backstop.  An
   exact park's wakes push the same runner at their ancestry nodes. *)
let wake t st ~at =
  if st.crash_at >= 0 && (not st.crashed) && at >= st.crash_at then
    crash_stop t st ~at:(Int.max t.now st.crash_at)
  else sched t ~at st.run_ik

(* The completion at [at] of the running thread's own step, which could
   not direct-run.  A thread that cannot crash, on an unordered queue,
   leaves it in the stash: the run loop pushes it and pops the next
   event in one sift ([Event_queue.push_pop_into]) as soon as the
   thread's fiber returns to it, which it does next.  The stash holds
   ints only, so it costs no write barrier. *)
let queue_step t st ~at =
  if t.exact || st.crash_at >= 0 then wake t st ~at
  else begin
    t.stash_at <- at;
    t.stash_tid <- st.tid
  end

(* ------------------------------------------------------------------ *)
(* A thread's own operations: plain calls on its stack.  The thread comes
   from the domain's current-thread cell, the step is charged there,
   fault draws and the crash check included, and the thread suspends
   ([E_suspend]) only when the completion cannot direct-run. *)

let current () =
  match (Domain.DLS.get cell_key).cur with
  | Some st -> st
  | None -> raise (Effect.Unhandled E_suspend)

(* Complete the calling thread's own step at [at] with result [v]. *)
let complete t st ~at v =
  if try_direct t st ~at then v
  else begin
    st.pend_at <- at;
    st.pend_iv <- v;
    Effect.perform E_suspend
  end

(* Suspend the calling thread: [E_suspend] resumes it at [at], or a
   waker does ([wake]) when [at] is -1. *)
let suspend st ~at =
  st.pend_at <- at;
  ignore (Effect.perform E_suspend)

(* Charge [st]'s memory operation against the memory model at the
   current time; returns its completion time and leaves its result in
   [Memory.last_result]. *)
let[@inline] charge t st op a ~operand ~operand2 ~fetch =
  (match t.trace with Some tr -> Trace.set_tid tr st.tid | None -> ());
  let latency =
    Memory.access_lat_in t.mem ~core:st.core ~now:t.now op a ~operand
      ~operand2 ~fetch
  in
  t.now + latency + fault_extra t st ~mem_op:true

(* One memory operation: charged at the current time, completed at its
   completion time. *)
let mem_op op a ~operand ~operand2 ~fetch =
  let st = current () in
  let t = st.sim in
  let at = charge t st op a ~operand ~operand2 ~fetch in
  complete t st ~at (Memory.last_result t.mem)

let load a = mem_op Arch.Load a ~operand:0 ~operand2:0 ~fetch:false
let store a v = ignore (mem_op Arch.Store a ~operand:v ~operand2:0 ~fetch:false)

(* Store posted through the store buffer: the thread pays only the
   retire cost while the transfer (value, invalidations, occupancy)
   completes in the background — [operand2 = 1] marks it for the
   memory model. *)
let store_posted a v =
  ignore (mem_op Arch.Store a ~operand:v ~operand2:1 ~fetch:false)

let cas a ~expected ~desired =
  mem_op Arch.Cas a ~operand:expected ~operand2:desired ~fetch:false = 1

(* CAS that returns the value it observed (success iff it equals
   [expected]): a retry loop built on it sees the line's value at its
   own probe time instead of re-reading a stale snapshot. *)
let cas_fetch a ~expected ~desired =
  mem_op Arch.Cas a ~operand:expected ~operand2:desired ~fetch:true

let fai a = mem_op Arch.Fai a ~operand:1 ~operand2:0 ~fetch:false

(* Atomic fetch-and-add by [k] (k >= 0); [faa a 0] is an exclusive
   atomic read: it returns the value and leaves the line Modified at the
   caller, modeling a prefetchw+load probe. *)
let faa a k =
  if k < 0 then invalid_arg "Sim.faa: negative increment";
  mem_op Arch.Fai a ~operand:k ~operand2:0 ~fetch:false

(* Store-class fetch-and-add: an increment of a field only this thread
   writes (e.g. a ticket lock's [current] on release).  Applied
   atomically by the model but costed as a plain store. *)
let faa_store a k =
  if k < 0 then invalid_arg "Sim.faa_store: negative increment";
  mem_op Arch.Fai a ~operand:k ~operand2:1 ~fetch:false

(* [tas] returns [true] when the caller won (the previous value was 0). *)
let tas a = mem_op Arch.Tas a ~operand:0 ~operand2:0 ~fetch:false = 0
let swap a v = mem_op Arch.Swap a ~operand:v ~operand2:0 ~fetch:false

(* [st] pauses [cycles > 0]. *)
let[@inline] pause_in t st cycles =
  let cycles = cycles + fault_extra t st ~mem_op:false in
  ignore (complete t st ~at:(t.now + cycles) 0)

let pause cycles =
  if cycles > 0 then begin
    let st = current () in
    pause_in st.sim st cycles
  end

let now () = (current ()).sim.now
let self_core () = (current ()).core
let self_tid () = (current ()).tid
let event_driven_waits () = parker_driven (current ()).sim

(* Cost-free oracle: robust locks model the OS's exact knowledge of
   which threads died (robust-futex EOWNERDEAD bookkeeping), so the
   query itself adds no events and no latency.  True from the moment
   virtual time reaches the victim's crash time, whether or not the
   crash event itself has fired yet. *)
let tid_crashed qtid =
  let t = (current ()).sim in
  match Hashtbl.find_opt t.tstates qtid with
  | Some qst -> qst.crashed || (qst.crash_at >= 0 && t.now >= qst.crash_at)
  | None -> false

(* Park and wake bookkeeping of a wait: counters, run-state gauges and
   trace records.  [a] is the polled word, -1 for a parker; a woken
   spinner is spinning again ([s]), a woken parker runnable. *)
let[@inline] note_park t st a =
  t.parks <- t.parks + 1;
  m_trans t st ~at:t.now m_parked;
  m_bump t ~kind:Metrics.k_parks ~ts:t.now;
  match t.trace with
  | Some tr -> Trace.park tr ~ts:t.now ~tid:st.tid ~addr:a
  | None -> ()

let[@inline] note_wake t st a ~at s =
  t.wakeups <- t.wakeups + 1;
  m_bump t ~kind:Metrics.k_wakes ~ts:at;
  m_trans t st ~at s;
  match t.trace with
  | Some tr -> Trace.wake tr ~ts:at ~tid:st.tid ~addr:a
  | None -> ()

(* How far an exact park looks ahead for a firing fault draw: a waiter
   still parked after this many polls runs that poll for real and
   parks again. *)
let scan_polls = 4096

(* Exact parking under fault draws.  At [t.now] a probe returned
   [while_] and its pause was drawn; literal polling would issue probe
   [i] at [g0 + i * step] and pause [hit] cycles after it, drawing each
   step's faults from the thread's own stream.  The elided polls form
   an [Event_queue.chain]: event [probe_idx i] runs probe [i] (with
   [poll = 0] probe [i] runs in event [i], probe 0 in the parking step
   itself) and event [2i+2] pause [i].  A scan of a scratch copy of the
   stream finds the first step whose draws fire — or the first past
   [until], or the scan's end — and a wake queued there runs that step
   for real.  An earlier disturbing access replays the next probe
   instead and withdraws that wake.  Either way the stream skips the
   draws of the polls passed ([Rng.advance]), and every event standing
   in for an elided one carries that one's ancestry node, so it sorts
   where polling would have put it. *)
let probe_idx ~poll i = if poll = 0 then i else (2 * i) + 1

(* Waiter [w]'s probe [i] issues at [probe_time w i]; [probe_index] is
   the inverse on its grid. *)
let probe_time w i =
  w.Memory.w_parked + w.Memory.w_poll + (i * (w.Memory.w_hit + w.Memory.w_poll))

let probe_index w g =
  (g - w.Memory.w_parked - w.Memory.w_poll) / (w.Memory.w_hit + w.Memory.w_poll)

(* Skip the draws of [probes] elided probes and [pauses] pauses: a
   probe draws jitter and preemption, a pause preemption, each only
   when its probability is positive. *)
let skip_draws t st ~poll ~probes ~pauses =
  let f = t.faults in
  let d_preempt = if f.Fault.preempt_prob > 0. then 1 else 0 in
  let d_probe = (if f.Fault.jitter_prob > 0. then 1 else 0) + d_preempt in
  let d_pause = if poll > 0 then d_preempt else 0 in
  Rng.advance st.rng ((probes * d_probe) + (pauses * d_pause))

(* [Memory.waiter.w_tie]: did the probe issuing at [g] (the running
   access's time) run before that access? *)
let exact_tie t x g =
  let w = x.x_w in
  let poll = w.Memory.w_poll in
  let i = probe_index w g in
  (poll = 0 && i = 0)
  ||
  let n = Event_queue.current t.q in
  Event_queue.precedes_cursor Event_queue.nil x.x_chain (probe_idx ~poll i) n
    n.Event_queue.n_chain (Event_queue.idx n)

(* [Memory.waiter.w_replay]: a disturbing access; the next probe, at
   [at], runs for real — unless the scan's stop comes first, whose wake
   then runs that step for real instead. *)
let exact_replay t st x at =
  let w = x.x_w in
  let poll = w.Memory.w_poll in
  if at < x.x_stop then begin
    let k = probe_index w at in
    Event_queue.remove t.q x.x_wake;
    skip_draws t st ~poll ~probes:k ~pauses:k;
    x.x_w <- Memory.no_waiter;
    x.x_parked <- false;
    note_wake t st w.Memory.w_addr ~at m_spinning;
    let n = Event_queue.virt x.x_chain (probe_idx ~poll k) in
    x.x_wake <- n;
    Event_queue.push_node t.q n st.run_ik
  end

(* Woken at the scan's stop: settle the polls before it.  [true] when
   its step is a pause (an even chain event), [false] for a probe; the
   waiter then runs that step for real. *)
let exact_stop t st x =
  let w = x.x_w in
  let poll = w.Memory.w_poll in
  let is_pause = poll > 0 && Event_queue.idx x.x_wake land 1 = 0 in
  Memory.unpark t.mem w ~at:t.now;
  Memory.settle_waiter t.mem w ~upto:t.now;
  let k = probe_index w w.Memory.w_next in
  skip_draws t st ~poll ~probes:k ~pauses:(if is_pause then k - 1 else k);
  x.x_w <- Memory.no_waiter;
  x.x_parked <- false;
  note_wake t st w.Memory.w_addr ~at:t.now m_spinning;
  is_pause

let no_exact =
  {
    x_scan = Rng.create ~seed:0;
    x_w = Memory.no_waiter;
    x_parked = false;
    x_chain = Event_queue.no_chain;
    x_wake = Event_queue.nil;
    x_stop = max_int;
    x_tie = Memory.no_tie;
    x_replay = ignore;
  }

let make_exact t st =
  let rec x =
    {
      x_scan = Rng.copy st.rng;
      x_w = Memory.no_waiter;
      x_parked = false;
      x_chain = Event_queue.no_chain;
      x_wake = Event_queue.nil;
      x_stop = max_int;
      x_tie = (fun g -> exact_tie t x g);
      x_replay = (fun at -> exact_replay t st x at);
    }
  in
  x

(* Park exactly, given the next probe's inert latency [hit]; [false]
   (nothing parked) when the very next probe is the scan's stop.  The
   wake at the stop resumes the thread. *)
let exact_park t st op a ~operand ~operand2 ~while_ ~poll ~hit =
  let x = st.xp in
  let jp = t.faults.Fault.jitter_prob and pp = t.faults.Fault.preempt_prob in
  (* [Rng.float r < p] is [Rng.bits53 r < threshold p], without floats *)
  let threshold p = int_of_float (Float.ceil (p *. 9007199254740992.)) in
  let tj = threshold jp and tp = threshold pp in
  let step = hit + poll and g0 = t.now + poll and until = t.run_until in
  let sc = x.x_scan in
  Rng.blit ~src:st.rng ~dst:sc;
  let i = ref 0 and stop = ref (-1) in
  while !stop < 0 do
    let g = g0 + (!i * step) in
    if g > until || !i >= scan_polls then stop := probe_idx ~poll !i
    else if
      (jp > 0. && Rng.bits53 sc < tj) || (pp > 0. && Rng.bits53 sc < tp)
    then stop := probe_idx ~poll !i
    else if poll > 0 && (g + hit > until || (pp > 0. && Rng.bits53 sc < tp))
    then stop := (2 * !i) + 2
    else incr i
  done;
  !stop <> probe_idx ~poll 0
  && begin
       let chain =
         if poll = 0 then Event_queue.chain t.q ~t1:(t.now + hit) ~a:hit ~b:hit
         else Event_queue.chain t.q ~t1:g0 ~a:hit ~b:poll
       in
       x.x_chain <- chain;
       x.x_w <-
         Memory.park t.mem ~core:st.core ~now:t.now op a ~operand ~operand2
           ~while_ ~poll ~tie:x.x_tie ~replay:x.x_replay;
       x.x_stop <- Event_queue.chain_time chain !stop;
       x.x_parked <- true;
       let n = Event_queue.virt chain !stop in
       x.x_wake <- n;
       Event_queue.push_node t.q n st.run_ik;
       note_park t st a;
       true
     end

(* The exact wait after a probe returned [while_]: draw the pause first,
   so parking never reorders draws, then park or step on.  A wake at
   the scan's stop on a pause runs that pause for real: the wait starts
   over there. *)
let rec exact_wait t st op a ~operand ~operand2 ~while_ ~poll =
  let cy = if poll = 0 then 0 else poll + fault_extra t st ~mem_op:false in
  let hit =
    if cy = poll then
      Memory.inert_hit t.mem ~core:st.core op a ~operand ~operand2 ~while_
    else -1
  in
  if hit >= 0 && exact_park t st op a ~operand ~operand2 ~while_ ~poll ~hit
  then begin
    suspend st ~at:(-1);
    (* resumed by a replay, whose probe runs next, or at the stop *)
    if st.xp.x_parked && exact_stop t st st.xp then
      exact_wait t st op a ~operand ~operand2 ~while_ ~poll
  end
  else if cy > 0 then ignore (complete t st ~at:(t.now + cy) 0)

(* The wait before a spin's next probe, at the spin's start or at the
   completion of a probe that returned [while_]: pause [poll], or park
   on the line until the probe must run for real.  Returns at the
   probe's issue time. *)
let wait t st op a ~operand ~operand2 ~while_ ~poll =
  if t.exact then exact_wait t st op a ~operand ~operand2 ~while_ ~poll
  else if
    t.spins_park
    && Memory.try_park_in t.mem ~core:st.core ~now:t.now op a ~operand
         ~operand2 ~while_ ~poll ~replay:st.replay
  then begin
    st.spin_addr <- a;
    note_park t st a;
    suspend st ~at:(-1)
  end
  else if poll > 0 then pause_in t st poll

(* {2 Spin primitives}

   Each is the loop "pause [poll], then probe, until the result differs
   from [while_]" and returns that result: callers probe once before
   they call.  The run-state gauge counts the thread spinning from the
   call until its last probe completes, booked at that probe's
   issue. *)
let spin op a ~operand ~operand2 ~while_ ~poll =
  if poll < 0 then invalid_arg "Sim.spin: negative poll interval";
  let st = current () in
  let t = st.sim in
  m_trans t st ~at:t.now m_spinning;
  let v = ref while_ in
  while !v = while_ do
    wait t st op a ~operand ~operand2 ~while_ ~poll;
    let at = charge t st op a ~operand ~operand2 ~fetch:false in
    let x = Memory.last_result t.mem in
    if x <> while_ then m_trans t st ~at m_runnable;
    v := complete t st ~at x
  done;
  !v

let spin_load a ~while_ ~poll =
  spin Arch.Load a ~operand:0 ~operand2:0 ~while_ ~poll

(* Spin until the test-and-set wins (previous value 0); continues while
   the probe returns 1. *)
let spin_tas a ~poll =
  ignore (spin Arch.Tas a ~operand:0 ~operand2:0 ~while_:1 ~poll)

(* Spin until the CAS succeeds; continues while the probe fails. *)
let spin_cas a ~expected ~desired ~poll =
  ignore (spin Arch.Cas a ~operand:expected ~operand2:desired ~while_:0 ~poll)

let spin_swap a v ~while_ ~poll =
  spin Arch.Swap a ~operand:v ~operand2:0 ~while_ ~poll

(* Spin probing with an exclusive atomic read (prefetchw-style
   [faa a 0]). *)
let spin_faa0 a ~while_ ~poll =
  spin Arch.Fai a ~operand:0 ~operand2:0 ~while_ ~poll

(* {2 Barriers and parkers} *)

let make_barrier n : barrier = { expected = n; arrived = 0; waiters = [] }

(* The releasing arrival is the latest-timed one, so every waiter wakes
   at the release time, in [waiters] order, and the releaser, queued at
   the same time, after them. *)
let await b =
  let st = current () in
  let t = st.sim in
  b.arrived <- b.arrived + 1;
  if b.arrived >= b.expected then begin
    List.iter (fun w -> wake t w ~at:t.now) b.waiters;
    b.waiters <- [];
    b.arrived <- 0;
    suspend st ~at:t.now
  end
  else begin
    b.waiters <- st :: b.waiters;
    suspend st ~at:(-1)
  end

let make_parker () : parker = { seat = None; seat_at = 0; seat_poll = 1 }

let park pk ~poll =
  if poll <= 0 then invalid_arg "Sim.park: poll must be positive";
  let st = current () in
  let t = st.sim in
  if parker_driven t then begin
    (match pk.seat with
    | Some _ -> invalid_arg "Sim.park: parker already occupied"
    | None -> ());
    pk.seat <- Some st;
    pk.seat_at <- t.now;
    pk.seat_poll <- poll;
    note_park t st (-1);
    suspend st ~at:(-1)
  end
  else
    (* literal polling: one pause quantum, the caller's loop re-checks *)
    pause_in t st poll

(* Costless for the caller, which carries on at once. *)
let unpark pk =
  let t = (current ()).sim in
  match pk.seat with
  | Some w ->
      pk.seat <- None;
      (* first poll-grid point after the state change *)
      let dt = t.now - pk.seat_at in
      let steps = Int.max 1 ((dt + pk.seat_poll - 1) / pk.seat_poll) in
      let at = pk.seat_at + (steps * pk.seat_poll) in
      note_wake t w (-1) ~at m_runnable;
      wake t w ~at
  | None -> ()

(* ------------------------------------------------------------------ *)

let spawn t ~core body =
  Topology.check t.platform.Platform.topo core;
  let tid = t.spawned in
  t.spawned <- tid + 1;
  t.live <- t.live + 1;
  let rng = Fault.stream t.faults ~tid in
  let crash_at = Fault.crash_time t.faults ~tid in
  let rec st =
    {
      sim = t;
      me = Some st;
      tid;
      core;
      rng;
      crash_at;
      last_progress = t.now;
      finished = false;
      crashed = false;
      pend_ik = no_k;
      pend = false;
      pend_iv = 0;
      pend_at = 0;
      run_ik =
        (fun () ->
          st.last_progress <- t.now;
          if st.pend then begin
            st.pend <- false;
            enter t st;
            Effect.Deep.continue st.pend_ik st.pend_iv
          end);
      spin_addr = -1;
      replay =
        (fun at ->
          note_wake t st st.spin_addr ~at m_spinning;
          wake t st ~at);
      m_state = m_runnable;
      m_since = t.now;
      xp = no_exact;
    }
  in
  if t.exact then st.xp <- make_exact t st;
  Hashtbl.replace t.tstates tid st;
  if tid = Array.length t.runners then begin
    let runners = Array.make (Int.max 8 (2 * tid)) ignore in
    Array.blit t.runners 0 runners 0 tid;
    t.runners <- runners
  end;
  t.runners.(tid) <- st.run_ik;
  (match t.trace with
  | Some tr -> Trace.thread tr ~ts:t.now ~tid ~core
  | None -> ());
  let open Effect.Deep in
  (* the handler's answer to [E_suspend], built once per thread rather
     than per suspension *)
  let on_suspend =
    Some
      (fun (k : (int, unit) continuation) ->
        st.pend_ik <- k;
        st.pend <- true;
        if st.pend_at >= 0 then queue_step t st ~at:st.pend_at)
  in
  let handler : (unit, unit) handler =
    {
      retc =
        (fun () ->
          st.finished <- true;
          st.last_progress <- t.now;
          m_trans t st ~at:t.now m_dead;
          t.live <- t.live - 1);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with E_suspend -> on_suspend | _ -> None);
    }
  in
  sched t ~at:t.now (fun () ->
      st.last_progress <- t.now;
      enter t st;
      match_with body () handler)

(* ------------------------------------------------------------------ *)
(* Run loop and watchdog. *)

type verdict =
  | Completed
  | Stalled of { tid : int; core : int; last_progress : int }

type health = {
  verdict : verdict;
  crashed : int list; (* tids crash-stopped by fault injection *)
  preemptions : int; (* injected preemption events *)
  jitter_events : int; (* injected latency-jitter events *)
  dropped_events : int; (* events discarded past [until] *)
}

let verdict_to_string = function
  | Completed -> "completed"
  | Stalled { tid; core; last_progress } ->
      Printf.sprintf "stalled (tid %d on core %d, last progress at %d)" tid
        core last_progress

(* The live thread that has gone the longest without progress — the
   watchdog's culprit.  Ties break toward the lowest tid so the verdict
   is deterministic. *)
let most_stalled t =
  let best = ref None in
  for tid = 0 to t.spawned - 1 do
    match Hashtbl.find_opt t.tstates tid with
    | Some st when (not st.finished) && not st.crashed -> (
        match !best with
        | Some b when b.last_progress <= st.last_progress -> ()
        | _ -> best := Some st)
    | _ -> ()
  done;
  !best

(* Run the simulation until no events remain.  [until] stops the run at
   that virtual time (a backstop against threads that spin forever);
   [max_events] bounds total logical resumptions.  Returns the final
   time plus a structured health record: [Completed] when every thread
   returned, [Stalled] when live threads remained — either because the
   [until] backstop dropped their pending events or because the queue
   drained with threads still blocked (a deadlock, e.g. a barrier that
   never fills, a lock whose holder crash-stopped, or a parked waiter
   no access will ever wake). *)
(* A run of an exact simulation that ends with [until < max_int]: a
   polling waiter would have kept stepping up to [until].  A waiter
   still parked books its probes issued at or before [until], takes the
   time of its last step at or before [until] as [last_progress], and
   the final time moves there when that is later.  (A woken waiter's
   replay never falls past [until]: the scan stops every park at its
   first step past [until] at the latest, and no wake replays past
   that stop.) *)
let settle_backstop t ~until =
  Hashtbl.iter
    (fun _ st ->
      let x = st.xp in
      if x.x_parked then begin
        let w = x.x_w in
        Memory.settle_waiter t.mem w ~upto:(until + 1);
        let k = probe_index w w.Memory.w_next in
        if k >= 1 then begin
          let g = probe_time w (k - 1) in
          let last =
            if w.Memory.w_poll > 0 && g + w.Memory.w_hit <= until then
              g + w.Memory.w_hit
            else g
          in
          if last > st.last_progress then st.last_progress <- last;
          if last > t.now then t.now <- last
        end
      end)
    t.tstates

(* The event loop of one run: pop and run events until the queue drains
   or passes [until]; returns how many events the backstop dropped.  A
   step the last event left in the stash is pushed by the pop that
   takes the next event. *)
let drain t ~until ~max_events ~ev_base =
  let dropped = ref 0 in
  let p = t.popped in
  let continue_run = ref true in
  while !continue_run do
    let at = t.stash_at in
    let got =
      if at >= 0 then begin
        t.stash_at <- -1;
        Event_queue.push_pop_into t.q ~time:at t.runners.(t.stash_tid) p;
        true
      end
      else Event_queue.pop_into t.q p
    in
    if not got then continue_run := false
    else if p.Event_queue.p_time > until then begin
      (* the popped event plus everything still queued is discarded *)
      dropped := 1 + Event_queue.length t.q;
      continue_run := false
    end
    else begin
      t.events <- t.events + 1;
      t.queued <- t.queued + 1;
      if t.events - ev_base > max_events then
        raise (Simulation_runaway (t.events - ev_base));
      t.fuel <- 0;
      t.now <- p.Event_queue.p_time;
      if t.exact then Event_queue.ran t.q p.Event_queue.p_node ~rank:t.events;
      p.Event_queue.p_run ()
    end
  done;
  !dropped

let run_health ?(until = max_int) ?(max_events = 200_000_000) t =
  let start_now = t.now in
  let start_elided = (Memory.stats t.mem).Stats.elided_probes in
  let ev_base = t.events in
  let queued_base = t.queued in
  let parks_base = t.parks in
  let wakeups_base = t.wakeups in
  t.run_until <- until;
  (* the threads run with the domain's cell pointing at them; on the way
     out, normal or not, it gets back what it held before the run *)
  let cell = Domain.DLS.get cell_key in
  let outer = cell.cur in
  t.cell <- cell;
  let dropped =
    match drain t ~until ~max_events ~ev_base with
    | n ->
        cell.cur <- outer;
        n
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        cell.cur <- outer;
        Printexc.raise_with_backtrace e bt
  in
  if t.exact && until < max_int then settle_backstop t ~until;
  (* close the open run-state spans so the thread gauges cover the
     whole run, whichever state each thread ends it in *)
  if t.macc <> None then
    Hashtbl.iter
      (fun _ st -> if st.m_state < m_dead then m_trans t st ~at:t.now st.m_state)
      t.tstates;
  t.cum.c_events <- t.cum.c_events + (t.events - ev_base);
  t.cum.c_queued <- t.cum.c_queued + (t.queued - queued_base);
  t.cum.c_parks <- t.cum.c_parks + (t.parks - parks_base);
  t.cum.c_wakeups <- t.cum.c_wakeups + (t.wakeups - wakeups_base);
  t.cum.c_sim_cycles <- t.cum.c_sim_cycles + (t.now - start_now);
  t.cum.c_elided <-
    t.cum.c_elided
    + ((Memory.stats t.mem).Stats.elided_probes - start_elided);
  let lq = (Memory.stats t.mem).Stats.link_queued_cycles in
  t.cum.c_link_queued <- t.cum.c_link_queued + (lq - t.booked_lq);
  t.booked_lq <- lq;
  let verdict =
    if t.live <= 0 then Completed
    else
      match most_stalled t with
      | Some st ->
          Stalled
            { tid = st.tid; core = st.core; last_progress = st.last_progress }
      | None -> Completed
  in
  ( t.now,
    {
      verdict;
      crashed = List.rev t.crashed_tids;
      preemptions = t.preempt;
      jitter_events = t.jitter;
      dropped_events = dropped;
    } )

let run ?until ?max_events t = fst (run_health ?until ?max_events t)

(* ------------------------------------------------------------------ *)
(* Engine performance counters. *)

type perf = {
  events : int; (* logical resumptions: event pops + direct-run continues *)
  queued : int; (* of which event pops *)
  parks : int; (* threads parked event-driven *)
  wakeups : int;
      (* parked threads woken by a real access, or at the step an
         exact park's fault look-ahead stopped on *)
  elided_probes : int; (* inert spin probes accounted without an event *)
  link_queued_cycles : int;
      (* cycles memory ops spent queued behind busy interconnect
         resources (links and home directories) *)
  sim_cycles : int; (* virtual time advanced *)
}

let perf (t : t) =
  {
    events = t.events;
    queued = t.queued;
    parks = t.parks;
    wakeups = t.wakeups;
    elided_probes = (Memory.stats t.mem).Stats.elided_probes;
    link_queued_cycles = (Memory.stats t.mem).Stats.link_queued_cycles;
    sim_cycles = t.now;
  }

(* Totals across every simulation run by the *calling domain* (the
   benchmark harness samples deltas around each job in the domain that
   executes it, then sums per-job deltas). *)
let cumulative_perf () =
  let c = counters () in
  {
    events = c.c_events;
    queued = c.c_queued;
    parks = c.c_parks;
    wakeups = c.c_wakeups;
    elided_probes = c.c_elided;
    link_queued_cycles = c.c_link_queued;
    sim_cycles = c.c_sim_cycles;
  }

(* Pure arithmetic on perf records, for aggregating per-job deltas. *)
let perf_zero =
  {
    events = 0;
    queued = 0;
    parks = 0;
    wakeups = 0;
    elided_probes = 0;
    link_queued_cycles = 0;
    sim_cycles = 0;
  }

let perf_map2 f a b =
  {
    events = f a.events b.events;
    queued = f a.queued b.queued;
    parks = f a.parks b.parks;
    wakeups = f a.wakeups b.wakeups;
    elided_probes = f a.elided_probes b.elided_probes;
    link_queued_cycles = f a.link_queued_cycles b.link_queued_cycles;
    sim_cycles = f a.sim_cycles b.sim_cycles;
  }

let perf_add a b = perf_map2 ( + ) a b
let perf_diff a b = perf_map2 ( - ) a b
