(* Shadow registry for the robust lock paths: the simulated analogue of
   the kernel-side bookkeeping robust futexes rely on (the robust list
   plus the owner TID stored in the futex word), which is what lets the
   OS hand EOWNERDEAD to the next acquirer instead of wedging the lock.

   Correctness rests on two properties of the engine:

   - The engine is serial and a crash only *drops a resumption*: plain
     OCaml code between two simulated-memory effects runs atomically
     with respect to crashes and other threads.  Shadow state written
     in the same plain block as an operation's issue is therefore
     exactly consistent with that operation having taken effect (the
     memory model applies mutations at issue time), even if the issuing
     thread crashes before it resumes.

   - [Memory.peek] is a zero-cost debug read, so a value peeked in the
     same plain block as a subsequent CAS/swap/faa issue exactly
     predicts what that operation observes.  Robust paths use an honest
     costed probe ([Sim.load] etc.) for the memory traffic, then peek
     to *decide and issue* atomically — which is how the shadow stays
     in lockstep with the simulated lock words without adding a single
     line of simulated memory.

   Crash-stop is permanent ([Sim.tid_crashed] is monotone), so "owner
   is dead" is a stable property: once a recovery decision is made in a
   plain block, no later event can invalidate it.

   A lock builds its shadow with the rest of its robust layer, at its
   first robust call ([Lock_type.robust]).  Built then, it equals one
   built at construction and left unused until that call: every id is
   [Out], every engine tid unknown, nothing pending.  [register]'s
   first-call-wins rule is unchanged, and a cohort's liveness probe on a
   cluster whose local layer was never built forces a fresh shadow,
   which reports no live engaged thread — the answer the unused eager
   shadow gave. *)

open Ssync_engine

(* Where an id stands with respect to this lock.  [Releasing] covers
   release protocols with internal waits (MCS); single-operation
   releases go Holder -> Out atomically with the releasing store. *)
type phase = Out | Waiting | Holder | Releasing

type t = {
  n : int;
  eng : int array;  (* id -> engine tid (spawn order), -1 unknown *)
  phase : phase array;
  mutable pending : int list;
      (* dead holders recovered past but not yet witnessed by a grant *)
  stats : Lock_type.rstats;
  is_dead : (int -> bool) option;
      (* override for ids that are not thread ids (cluster ids) *)
  dead_of : int -> int list;
      (* id -> the real dead tids an [Owner_died] witness should name *)
  on_removed : int -> unit;
      (* fired when an id is excised or its death claimed — lets a
         cohort reset per-cluster ownership flags *)
}

let create ~stats ?is_dead ?(dead_of = fun i -> [ i ])
    ?(on_removed = fun _ -> ()) n =
  {
    n;
    eng = Array.make (max 1 n) (-1);
    phase = Array.make (max 1 n) Out;
    pending = [];
    stats;
    is_dead;
    dead_of;
    on_removed;
  }

(* Record the calling thread's engine tid for [id]: crash schedules are
   keyed by spawn order ([Sim.tid_crashed]), while locks speak the
   workload's thread numbering.  First robust call wins; ids never
   migrate between engine threads. *)
let register sh id = if sh.eng.(id) < 0 then sh.eng.(id) <- Sim.self_tid ()

(* Is [id] crash-stopped?  Ids that never made a robust call own
   nothing and report alive.  Cost-free (oracle query). *)
let dead sh id =
  id >= 0 && id < sh.n
  &&
  match sh.is_dead with
  | Some f -> f id
  | None ->
      let e = sh.eng.(id) in
      e >= 0 && Sim.tid_crashed e

(* First observation of a recovery condition: start the episode's
   detection -> grant latency clock. *)
let detect det = if !det < 0 then det := Sim.now ()

(* Remove a dead *waiter* from the wait structure's shadow. *)
let excise sh id =
  sh.phase.(id) <- Out;
  sh.stats.r_excised <- sh.stats.r_excised + 1;
  sh.on_removed id

(* Claim a dead *holder*: mark it gone and queue its identity for the
   next grant's [Owner_died] witness. *)
let claim_holder sh id =
  sh.phase.(id) <- Out;
  sh.pending <- sh.pending @ sh.dead_of id;
  sh.stats.r_dead_holders <- sh.stats.r_dead_holders + 1;
  sh.on_removed id

(* Claim every dead in-CS holder this shadow currently knows of,
   returning their witness tids without queueing them — the hook a
   hierarchical global lock uses as [dead_of] for a whole cluster. *)
let harvest_dead_holders sh =
  let out = ref [] in
  for id = 0 to sh.n - 1 do
    (match sh.phase.(id) with
    | Holder | Releasing ->
        if dead sh id then begin
          sh.phase.(id) <- Out;
          sh.stats.r_dead_holders <- sh.stats.r_dead_holders + 1;
          out := !out @ sh.dead_of id;
          sh.on_removed id
        end
    | Out | Waiting -> ());
  done;
  !out

(* Finalize a robust acquisition: count it, close the recovery episode
   if one was opened, and surface any pending dead holders as the
   grant's witness. *)
let grant sh det =
  sh.stats.r_grants <- sh.stats.r_grants + 1;
  if !det >= 0 then begin
    sh.stats.r_recoveries <- sh.stats.r_recoveries + 1;
    sh.stats.r_recovery_cycles <-
      sh.stats.r_recovery_cycles + (Sim.now () - !det)
  end;
  match sh.pending with
  | [] -> Lock_type.Clean
  | dead ->
      sh.pending <- [];
      sh.stats.r_owner_deaths <- sh.stats.r_owner_deaths + 1;
      Lock_type.Owner_died { dead }

(* Is any live id still queued?  (The cohort release's "hand over
   locally?" probe: passing to a queue of corpses only delays the
   inter-cluster recovery.) *)
let waiting_live sh =
  let rec go i =
    i < sh.n && ((sh.phase.(i) = Waiting && not (dead sh i)) || go (i + 1))
  in
  go 0

(* Is any live id engaged with the lock at all (waiting, holding or
   releasing)?  A cluster with no live engaged thread is dead as far as
   the global lock is concerned: nobody is left to drive its global
   handle. *)
let engaged_live sh =
  let rec go i =
    i < sh.n && ((sh.phase.(i) <> Out && not (dead sh i)) || go (i + 1))
  in
  go 0

(* Capabilities a robust lock exposes beyond [Lock_type.t], needed by
   the hierarchical cohorts: query an id's shadow phase, resume the
   wait for an id that is already enqueued (a new cluster
   representative adopting the global handle of a dead one), and the
   liveness probes above. *)
type ext = {
  x_phase : int -> phase;
  x_adopt : int -> Lock_type.grant;
      (* resume waiting for an id already in the wait structure (phase
         [Waiting]), or consume a grant that already landed (phase
         [Holder]); counts as a recovery episode *)
  x_waiting_live : unit -> bool;
  x_engaged_live : unit -> bool;
  x_harvest : unit -> int list;
}
