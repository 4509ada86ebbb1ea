(* Hierarchical locks: hticket (hierarchical ticket, Dice et al.'s lock
   cohorting applied to ticket locks — the paper's footnote 3 notes the
   two are the same construction) and HCLH (its CLH counterpart,
   realized as a CLH-of-CLH cohort; the splice-based HCLH of Luchangco
   et al. has the same performance signature: waiters spin node-locally
   and the lock is handed over within a socket whenever possible).

   Structure: one global lock plus one local lock per cluster (die on
   the Opteron, socket on the Xeon).  The first thread of a cluster to
   win its local lock also takes the global lock; on release the holder
   hands over locally while local waiters exist (bounded by [max_pass]
   to preserve long-term fairness), and only then releases the global
   lock.

   Robust composition: the global lock's robust id space is the
   cluster ids, with liveness delegated to the local locks' shadows —
   a cluster is dead exactly when no live thread is engaged with its
   local lock (nobody is left to drive the cluster's global handle).
   Intra-cluster owner death recovers locally and the global lock never
   notices.  When the cluster's global *driver* dies but live local
   threads remain, the next local winner adopts the cluster's global
   handle mid-queue ([Rshadow.x_adopt]).  When a whole cluster dies,
   the other clusters excise it from the global queue; the excision
   harvests the cluster's dead in-CS holders for the EOWNERDEAD witness
   and resets the cluster's ownership flags.  Every level builds its
   robust layer at its first robust call; the cohort's own layer is
   built at the cohort's first robust call and forces the others as
   they are reached. *)

open Ssync_platform

type inner = {
  lock : Lock_type.t;
  waiters : tid:int -> bool; (* is someone queued behind the holder? *)
  rext : Rshadow.ext Lazy.t; (* robust shadow probes of the local lock *)
}

let default_max_pass = 64

(* Cluster = node of the core the thread is placed on. *)
let cluster_of platform ~place tid =
  platform.Platform.topo.Topology.node_of_core (place tid)

(* First core of each cluster under the platform's placement, used to
   home each cluster's local lock on its own node. *)
let cluster_home platform cluster =
  let topo = platform.Platform.topo in
  let rec find c =
    if c >= topo.Topology.n_cores then 0
    else if topo.Topology.node_of_core c = cluster then c
    else find (c + 1)
  in
  find 0

(* [global_owned]/[passes] are created by the lock constructors (the
   global lock's removal hook must reset them, and it is built before
   the cohort record exists).  They are only read and written by the
   thread currently holding the cluster's local lock — or excising the
   cluster after its death — so plain OCaml state models node-local
   flags with no extra coherence traffic. *)
let cohort ~name ~platform ~place ?(max_pass = default_max_pass)
    ~(global : Lock_type.t) ~(global_ext : Rshadow.ext Lazy.t)
    ~(global_owned : bool array) ~(passes : int array)
    ~(locals : inner array) ~rstats () : Lock_type.t =
  let n_clusters = Array.length locals in
  if n_clusters = 0 then invalid_arg "cohort: no clusters";
  {
    name;
    acquire =
      (fun ~tid ->
        let c = cluster_of platform ~place tid in
        locals.(c).lock.Lock_type.acquire ~tid;
        if not global_owned.(c) then begin
          (* the global lock is acquired on behalf of the cluster *)
          global.Lock_type.acquire ~tid:c;
          global_owned.(c) <- true
        end);
    release =
      (fun ~tid ->
        let c = cluster_of platform ~place tid in
        if passes.(c) < max_pass && locals.(c).waiters ~tid then begin
          passes.(c) <- passes.(c) + 1;
          (* hand over within the cluster: the global lock stays owned *)
          locals.(c).lock.Lock_type.release ~tid
        end
        else begin
          passes.(c) <- 0;
          global_owned.(c) <- false;
          global.Lock_type.release ~tid:c;
          locals.(c).lock.Lock_type.release ~tid
        end);
    (* trylock both levels; back out of the local lock if the global one
       is taken, so a failed try leaves the cohort state untouched *)
    try_acquire =
      (fun ~tid ->
        let c = cluster_of platform ~place tid in
        if not (locals.(c).lock.Lock_type.try_acquire ~tid) then false
        else if global_owned.(c) then true
        else if global.Lock_type.try_acquire ~tid:c then begin
          global_owned.(c) <- true;
          true
        end
        else begin
          locals.(c).lock.Lock_type.release ~tid;
          false
        end);
    robust =
      lazy
        (let global_ext = Lazy.force global_ext in
         let acquire_robust ~tid =
           let c = cluster_of platform ~place tid in
           let gl = Lock_type.acquire_robust locals.(c).lock ~tid in
           let gg =
             if global_owned.(c) then Lock_type.Clean
             else begin
               let g =
                 match global_ext.Rshadow.x_phase c with
                 | Rshadow.Waiting | Rshadow.Holder ->
                     (* the cluster is already in the global queue (or
                        its grant landed) but its driver died: adopt the
                        handle and keep waiting in its place *)
                     global_ext.Rshadow.x_adopt c
                 | Rshadow.Out | Rshadow.Releasing ->
                     (* [Releasing] is unreachable for the ticket/CLH
                        globals (their release is atomic with its
                        store), so both mean: no outstanding handle *)
                     Lock_type.acquire_robust global ~tid:c
               in
               global_owned.(c) <- true;
               g
             end
           in
           Lock_type.merge_grant gl gg
         in
         let release_robust ~tid =
           let c = cluster_of platform ~place tid in
           if
             passes.(c) < max_pass
             && (Lazy.force locals.(c).rext).Rshadow.x_waiting_live ()
           then begin
             passes.(c) <- passes.(c) + 1;
             (* hand over within the cluster — but only to a live
                waiter: passing to a queue of corpses would just delay
                the inter-cluster recovery *)
             Lock_type.release_robust locals.(c).lock ~tid
           end
           else begin
             passes.(c) <- 0;
             global_owned.(c) <- false;
             Lock_type.release_robust global ~tid:c;
             Lock_type.release_robust locals.(c).lock ~tid
           end
         in
         { Lock_type.acquire_robust; release_robust });
    rstats;
  }

(* Wire a cohort's robust delegation: the global lock judges cluster
   [c] dead when no live thread is engaged with [c]'s local lock, its
   EOWNERDEAD witness for [c] is the harvest of [c]'s dead in-CS
   holders, and removing [c] from the global queue resets [c]'s
   ownership flags.  A cluster whose local layer was never built gets
   a fresh one, in which no thread is engaged: it is dead. *)
let cluster_hooks (locals : inner array) ~global_owned ~passes =
  let is_dead c =
    not ((Lazy.force locals.(c).rext).Rshadow.x_engaged_live ())
  in
  let dead_of c = (Lazy.force locals.(c).rext).Rshadow.x_harvest () in
  let on_removed c =
    global_owned.(c) <- false;
    passes.(c) <- 0
  in
  (is_dead, dead_of, on_removed)

let hticket ?max_pass mem platform ~home_core ~n_threads ~place : Lock_type.t =
  let n_clusters = platform.Platform.topo.Topology.n_nodes in
  let stats = Lock_type.rstats_zero () in
  let locals =
    Array.init n_clusters (fun c ->
        (* intra-socket handoffs are short: spin with a small backoff *)
        let lk, waiters, rext =
          Spinlocks.ticket_ext ~backoff_base:180 ~rstats:stats mem
            ~home_core:(cluster_home platform c) ~n_ids:n_threads
        in
        { lock = lk; waiters = (fun ~tid:_ -> waiters ()); rext })
  in
  let global_owned = Array.make n_clusters false in
  let passes = Array.make n_clusters 0 in
  let is_dead, dead_of, on_removed =
    cluster_hooks locals ~global_owned ~passes
  in
  let global, _, global_ext =
    Spinlocks.ticket_ext ~rstats:stats ~is_dead ~dead_of ~on_removed mem
      ~home_core ~n_ids:n_clusters
  in
  cohort ~name:"HTICKET" ~platform ~place ?max_pass ~global ~global_ext
    ~global_owned ~passes ~locals ~rstats:stats ()

let hclh ?max_pass mem platform ~home_core ~n_threads ~place : Lock_type.t =
  let n_clusters = platform.Platform.topo.Topology.n_nodes in
  let stats = Lock_type.rstats_zero () in
  let locals =
    Array.init n_clusters (fun c ->
        let home = cluster_home platform c in
        let lk, waiters, rext =
          Queue_locks.clh_ext ~rstats:stats mem ~home_core:home ~n_threads
            ~place
        in
        { lock = lk; waiters; rext })
  in
  let global_owned = Array.make n_clusters false in
  let passes = Array.make n_clusters 0 in
  let is_dead, dead_of, on_removed =
    cluster_hooks locals ~global_owned ~passes
  in
  (* the global CLH queue is entered per-cluster, so cluster ids act as
     its thread ids *)
  let global, _, global_ext =
    Queue_locks.clh_ext ~rstats:stats ~is_dead ~dead_of ~on_removed mem
      ~home_core ~n_threads:n_clusters ~place:(fun c ->
        cluster_home platform c)
  in
  cohort ~name:"HCLH" ~platform ~place ?max_pass ~global ~global_ext
    ~global_owned ~passes ~locals ~rstats:stats ()
