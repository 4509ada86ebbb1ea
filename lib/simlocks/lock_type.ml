(* The common lock interface of the simulated libslock: every algorithm
   is reduced to acquire/release closures usable from inside simulated
   threads.  [tid] identifies the calling thread (0..n_threads-1) for
   algorithms that keep per-thread queue nodes or slots.

   [try_acquire] is the non-blocking entry: it succeeds only when the
   lock can be taken *immediately* and otherwise leaves no trace in the
   lock's shared state (no ticket drawn, no queue node published) — the
   spin_trylock discipline.  That makes it safe to give up: a waiter
   bounded by [acquire_timeout] never wedges the lock for later
   acquirers, even on the queue locks, whose blocking acquire cannot
   abandon a published node.

   [acquire_robust]/[release_robust] are the owner-death-tolerant
   entries, modeled on robust futexes: an acquisition that had to
   recover past one or more crash-stopped threads returns an
   [Owner_died] witness naming every dead thread that held the lock
   inside its critical section, so the caller can repair the protected
   state (EOWNERDEAD / mutex-consistency marking) before relying on it.
   The robust paths keep their own owner/queue shadow — the simulated
   analogue of the kernel's robust list — and are entirely separate
   code from the plain paths: a lock used only through [acquire] /
   [release] issues exactly the memory operations it did before the
   robust layer existed.  Plain and robust acquisitions must not be
   mixed on one lock instance (the plain paths do not maintain the
   shadow, just as a non-robust futex acquisition is invisible to the
   kernel's robust list).

   The robust layer — shadow, per-id tables and closures — is the
   [robust] field's lazy value, built by the lock's first robust call:
   a lock used only through the plain entries never allocates it, and
   a layer built late is exactly the fresh one an unused eager layer
   would be (see [Rshadow]).  Of the robust state only [rstats] is
   eager, because cohort levels share one record and callers read it
   after a run.  A lock belongs to one simulation, which runs on one
   domain, so the layer is never forced from two domains. *)

open Ssync_engine

(* Outcome of a robust acquisition.  [dead] lists every crash-stopped
   thread that died while holding this lock (in its critical section or
   mid-release) and whose death this grant is the first to observe —
   each dead holder is witnessed exactly once across the lock's
   lifetime, by the acquisition that recovered past it. *)
type grant = Clean | Owner_died of { dead : int list }

let merge_grant a b =
  match (a, b) with
  | Clean, g | g, Clean -> g
  | Owner_died { dead = d1 }, Owner_died { dead = d2 } ->
      Owner_died { dead = d1 @ d2 }

(* Robustness counters, accumulated over the lock's lifetime (for the
   chaos scorecard).  Hierarchical locks share one record across the
   global and local levels, so a grant there may count once per level
   acquired. *)
type rstats = {
  mutable r_grants : int;  (* robust acquisitions granted *)
  mutable r_owner_deaths : int;  (* grants carrying an Owner_died witness *)
  mutable r_dead_holders : int;  (* dead in-CS holders recovered past *)
  mutable r_excised : int;  (* dead waiters excised from wait queues *)
  mutable r_recoveries : int;  (* recovery episodes (detection -> grant) *)
  mutable r_recovery_cycles : int;  (* total detection -> grant latency *)
}

let rstats_zero () =
  {
    r_grants = 0;
    r_owner_deaths = 0;
    r_dead_holders = 0;
    r_excised = 0;
    r_recoveries = 0;
    r_recovery_cycles = 0;
  }

type robust = {
  acquire_robust : tid:int -> grant;
  release_robust : tid:int -> unit;
}

type t = {
  name : string;
  acquire : tid:int -> unit;
  release : tid:int -> unit;
  try_acquire : tid:int -> bool;
      (* immediate, non-blocking; on failure the shared state is as if
         the call never happened *)
  robust : robust Lazy.t;
  rstats : rstats;
}

let acquire_robust t ~tid = (Lazy.force t.robust).acquire_robust ~tid
let release_robust t ~tid = (Lazy.force t.robust).release_robust ~tid

(* Run [f] under the lock. *)
let with_lock t ~tid f =
  t.acquire ~tid;
  let r = f () in
  t.release ~tid;
  r

(* Timed acquisition: retry [try_acquire] under capped exponential
   backoff until it succeeds or [timeout] virtual cycles elapse.
   Returns [false] on timeout, with the lock state untouched.  Bounded
   progress even when the holder is preempted or crash-stopped — the
   escape hatch the blocking [acquire] of a queue lock cannot offer. *)
let acquire_timeout t ~tid ~timeout =
  if timeout <= 0 then invalid_arg "acquire_timeout: timeout must be positive";
  if t.try_acquire ~tid then true
  else begin
    let deadline = Sim.now () + timeout in
    let b = Backoff.create ~min_delay:32 ~max_delay:4096 ~seed:(tid + 1) () in
    let rec loop () =
      if Sim.now () >= deadline then false
      else begin
        Sim.pause (min (Backoff.once b) (max 1 (deadline - Sim.now ())));
        if t.try_acquire ~tid then true else loop ()
      end
    in
    loop ()
  end

(* [with_lock_timeout t ~tid ~timeout f] runs [f] under the lock when it
   can be acquired within [timeout] cycles; [None] otherwise. *)
let with_lock_timeout t ~tid ~timeout f =
  if acquire_timeout t ~tid ~timeout then begin
    let r = f () in
    t.release ~tid;
    Some r
  end
  else None
