(* The queue locks of libslock: MCS and CLH.  Each waiter spins on its
   own cache line; the globally shared line (the tail pointer) is only
   touched once per acquisition, which is what makes these locks
   resilient to extreme contention (section 6.1.2).

   Robust paths (the genuinely hard part of owner-death recovery): a
   dead thread can die *anywhere* in the queue — holding the lock, in
   the middle of the wait list, at the tail, or half-enqueued — and the
   survivors must excise it hand-over-hand without breaking the chain.
   The shadow ([Rshadow] plus per-lock predecessor maps) mirrors the
   queue exactly because every link mutation is recorded in the same
   plain block as the memory operation that publishes it. *)

open Ssync_coherence
open Ssync_engine

(* ------------------------------ MCS ------------------------------ *)
(* Per-thread queue node = (next, locked), each on its own line homed at
   the thread's core so the spin is node-local.  The tail word holds
   tid+1 (0 = nil).

   Robust queue discipline: [pred_of] mirrors each waiter's
   predecessor (recorded with the tail swap), [ready] flips when the
   waiter's [locked] flag store has issued (so a granter never has its
   grant overwritten by the grantee's own initialization).  Waiters
   walk their predecessor chain: dead waiting middles are excised and
   the chain spliced past them; a dead holder (or a thread dead
   mid-release) is claimed, making the first live waiter behind the
   corpse prefix the new holder.  The releaser walks forward: dead
   successors are excised (fixing the tail when the corpse was last),
   and the grant goes to the first live one. *)
let mcs mem ~home_core ~n_threads ~place : Lock_type.t =
  if n_threads <= 0 then invalid_arg "mcs: n_threads must be positive";
  let tail = Memory.alloc ~home_core mem in
  let next = Array.init n_threads (fun i -> Memory.alloc ~home_core:(place i) mem) in
  let locked = Array.init n_threads (fun i -> Memory.alloc ~home_core:(place i) mem) in
  let rstats = Lock_type.rstats_zero () in
  let robust =
    lazy
      (let sh = Rshadow.create ~stats:rstats n_threads in
       let pred_of = Array.make n_threads (-1) in
       let ready = Array.make n_threads false in
       (* the unique still-queued successor of [t], if any *)
       let succ_of t =
         let rec go i =
           if i >= n_threads then None
           else if
             pred_of.(i) = t && sh.Rshadow.phase.(i) = Rshadow.Waiting
           then Some i
           else go (i + 1)
         in
         go 0
       in
       (* Hand-over-hand walk of [tid]'s predecessor chain: excise dead
          waiting middles (splicing the chain and the simulated next-link
          past them), claim a dead holder.  All shadow mutations happen in
          one plain block, atomically with the splice store's issue. *)
       let scan_preds ~tid det =
         let rec walk p acc =
           if p < 0 then ()
           else if not (Rshadow.dead sh p) then splice acc p
           else
             match sh.Rshadow.phase.(p) with
             | Rshadow.Waiting -> walk pred_of.(p) (p :: acc)
             | Rshadow.Holder | Rshadow.Releasing ->
                 (* the holder (or a mid-release holder whose grant never
                    issued) died: the first live waiter behind the corpse
                    prefix becomes the holder *)
                 Rshadow.detect det;
                 List.iter
                   (fun d ->
                     Rshadow.excise sh d;
                     pred_of.(d) <- -1)
                   acc;
                 Rshadow.claim_holder sh p;
                 pred_of.(tid) <- -1;
                 sh.Rshadow.phase.(tid) <- Rshadow.Holder
             | Rshadow.Out -> () (* transient: its grant is being handed on *)
         and splice acc p =
           match acc with
           | [] -> ()
           | dead ->
               Rshadow.detect det;
               List.iter
                 (fun d ->
                   Rshadow.excise sh d;
                   pred_of.(d) <- -1)
                 dead;
               pred_of.(tid) <- p;
               (* publish the spliced link so [p]'s release finds us *)
               Sim.store next.(p) (tid + 1)
         in
         walk pred_of.(tid) []
       in
       let acquire_robust ~tid =
         Rshadow.register sh tid;
         let det = ref (-1) in
         Sim.store next.(tid) 0;
         ready.(tid) <- false;
         (* the peek decides empty-vs-queued in the same block the tail swap
            issues, so the shadow matches the swap's outcome exactly *)
         let pv = Memory.peek mem tail in
         if pv = 0 then begin
           pred_of.(tid) <- -1;
           sh.Rshadow.phase.(tid) <- Rshadow.Holder;
           ignore (Sim.swap tail (tid + 1));
           Rshadow.grant sh det
         end
         else begin
           pred_of.(tid) <- pv - 1;
           sh.Rshadow.phase.(tid) <- Rshadow.Waiting;
           ignore (Sim.swap tail (tid + 1));
           ready.(tid) <- true;
           Sim.store locked.(tid) 1;
           Sim.store next.(pv - 1) (tid + 1);
           let rec wait () =
             ignore (Sim.load locked.(tid));
             if sh.Rshadow.phase.(tid) = Rshadow.Holder then
               Rshadow.grant sh det
             else begin
               scan_preds ~tid det;
               if sh.Rshadow.phase.(tid) = Rshadow.Holder then
                 Rshadow.grant sh det
               else begin
                 Sim.pause 6;
                 wait ()
               end
             end
           in
           wait ()
         end
       in
       let release_robust ~tid =
         sh.Rshadow.phase.(tid) <- Rshadow.Releasing;
         ignore (Sim.load next.(tid));
         (* honest successor read above; the shadow below is exact *)
         let rec handoff () =
           match succ_of tid with
           | Some u when Rshadow.dead sh u ->
               Rshadow.excise sh u;
               (match succ_of u with
               | Some x -> pred_of.(x) <- tid
               | None ->
                   (* the corpse was the tail: pull the tail back to us so
                      the queue can close (guaranteed: peeked same block) *)
                   let tv = Memory.peek mem tail in
                   if tv = u + 1 then
                     ignore (Sim.cas tail ~expected:tv ~desired:(tid + 1)));
               pred_of.(u) <- -1;
               handoff ()
           | Some u ->
               if not ready.(u) then begin
                 (* successor still initializing its node: wait for its
                    locked store, as the plain lock's ordering does *)
                 ignore (Sim.load next.(tid));
                 Sim.pause 6;
                 handoff ()
               end
               else begin
                 sh.Rshadow.phase.(u) <- Rshadow.Holder;
                 pred_of.(u) <- -1;
                 sh.Rshadow.phase.(tid) <- Rshadow.Out;
                 Sim.store locked.(u) 0
               end
           | None ->
               let tv = Memory.peek mem tail in
               if tv = tid + 1 then begin
                 sh.Rshadow.phase.(tid) <- Rshadow.Out;
                 ignore (Sim.cas tail ~expected:tv ~desired:0)
               end
               else begin
                 (* someone is mid-enqueue: its shadow link appears with its
                    tail swap; poll until it shows *)
                 ignore (Sim.load next.(tid));
                 Sim.pause 6;
                 handoff ()
               end
         in
         handoff ()
       in
       { Lock_type.acquire_robust; release_robust })
  in
  {
    name = "MCS";
    acquire =
      (fun ~tid ->
        Sim.store next.(tid) 0;
        let prev = Sim.swap tail (tid + 1) in
        if prev <> 0 then begin
          Sim.store locked.(tid) 1;
          Sim.store next.(prev - 1) (tid + 1);
          if Sim.load locked.(tid) = 1 then
            ignore (Sim.spin_load locked.(tid) ~while_:1 ~poll:6)
        end);
    release =
      (fun ~tid ->
        let successor = Sim.load next.(tid) in
        if successor = 0 then begin
          if not (Sim.cas tail ~expected:(tid + 1) ~desired:0) then begin
            (* someone is in the middle of enqueuing: wait for the link *)
            let rec wait s =
              if s = 0 then wait (Sim.spin_load next.(tid) ~while_:0 ~poll:6)
              else Sim.store locked.(s - 1) 0
            in
            wait (Sim.load next.(tid))
          end
        end
        else Sim.store locked.(successor - 1) 0);
    (* a published queue node cannot be abandoned, so only enqueue when
       the queue is empty: CAS nil -> our node *)
    try_acquire =
      (fun ~tid ->
        Sim.store next.(tid) 0;
        Sim.cas tail ~expected:0 ~desired:(tid + 1));
    robust;
    rstats;
  }

(* ------------------------------ CLH ------------------------------ *)
(* Implicit queue: each thread enqueues a node whose single word means
   "busy"; it spins on its *predecessor's* node and recycles that node
   for its next acquisition.  The tail word holds node_addr+1 (0 would
   be a valid address).

   Robust queue discipline: [node_owner] maps a node address to the id
   that last enqueued it and [pred_tid] mirrors each waiter's
   predecessor id (captured with the tail swap).  A waiter whose
   predecessor died waiting adopts the predecessor's own predecessor
   (hand-over-hand; the corpse's node is abandoned).  A waiter whose
   predecessor died holding claims the lock — the dead holder's node
   stays busy but is recycled by the claimant's release exactly as the
   plain protocol would recycle a released one. *)

(* Returns the lock, a [waiters] probe for the cohort locks (while
   [tid] holds the lock, someone queues behind it iff the tail moved
   past its node), and the robust extension, built with the lock's
   robust layer by whichever is forced first.  [is_dead] / [dead_of] /
   [on_removed] retarget the robust id space when the ids are not
   thread ids (a cohort's global lock over cluster ids). *)
let clh_ext ?(rstats = Lock_type.rstats_zero ()) ?is_dead ?dead_of ?on_removed
    mem ~home_core ~n_threads ~place :
    Lock_type.t * (tid:int -> bool) * Rshadow.ext Lazy.t =
  if n_threads <= 0 then invalid_arg "clh: n_threads must be positive";
  let dummy = Memory.alloc ~home_core mem in
  (* dummy starts "free" (0) *)
  let tail = Memory.alloc ~home_core ~value:(dummy + 1) mem in
  (* each thread's current node and, while it holds or waits, the
     predecessor node it spins on (-1 none) *)
  let mine =
    Array.init n_threads (fun i -> Memory.alloc ~home_core:(place i) mem)
  in
  let pred = Array.make n_threads (-1) in
  let layer =
    lazy
      (let sh =
         Rshadow.create ~stats:rstats ?is_dead ?dead_of ?on_removed n_threads
       in
       let node_owner : (Memory.addr, int) Hashtbl.t = Hashtbl.create 16 in
       let pred_tid = Array.make n_threads (-1) in
       let rec wait_robust ~id det =
         ignore (Sim.load pred.(id));
         if Memory.peek mem pred.(id) = 0 then begin
           sh.Rshadow.phase.(id) <- Rshadow.Holder;
           Rshadow.grant sh det
         end
         else begin
           let p = pred_tid.(id) in
           if p >= 0 && Rshadow.dead sh p then begin
             Rshadow.detect det;
             match sh.Rshadow.phase.(p) with
             | Rshadow.Holder | Rshadow.Releasing ->
                 (* dead holder: treat its busy node as released; it is
                    recycled by our own release, like any released node *)
                 Rshadow.claim_holder sh p;
                 sh.Rshadow.phase.(id) <- Rshadow.Holder;
                 Rshadow.grant sh det
             | Rshadow.Waiting ->
                 (* dead waiting predecessor: adopt its predecessor; the
                    corpse's node is abandoned (never freed) *)
                 Rshadow.excise sh p;
                 pred.(id) <- pred.(p);
                 pred_tid.(id) <- pred_tid.(p);
                 wait_robust ~id det
             | Rshadow.Out ->
                 (* released just now: the 0 shows on the next probe *)
                 Sim.pause 6;
                 wait_robust ~id det
           end
           else begin
             Sim.pause 6;
             wait_robust ~id det
           end
         end
       in
       let acquire_robust ~tid =
         Rshadow.register sh tid;
         let det = ref (-1) in
         Hashtbl.replace node_owner mine.(tid) tid;
         Sim.store mine.(tid) 1;
         (* the peek predicts the swap's result, so the predecessor
            shadow is recorded atomically with the enqueue *)
         let pv = Memory.peek mem tail in
         let prev = pv - 1 in
         pred.(tid) <- prev;
         pred_tid.(tid) <-
           (match Hashtbl.find_opt node_owner prev with
           | Some o -> o
           | None -> -1);
         sh.Rshadow.phase.(tid) <- Rshadow.Waiting;
         ignore (Sim.swap tail (mine.(tid) + 1));
         wait_robust ~id:tid det
       in
       let release_robust ~tid =
         sh.Rshadow.phase.(tid) <- Rshadow.Out;
         Sim.store mine.(tid) 0;
         (* recycle the predecessor's node *)
         mine.(tid) <- pred.(tid);
         pred.(tid) <- -1;
         pred_tid.(tid) <- -1
       in
       let ext =
         {
           Rshadow.x_phase = (fun id -> sh.Rshadow.phase.(id));
           x_adopt =
             (fun id ->
               let det = ref (Sim.now ()) in
               if sh.Rshadow.phase.(id) = Rshadow.Holder then
                 Rshadow.grant sh det
               else wait_robust ~id det);
           x_waiting_live = (fun () -> Rshadow.waiting_live sh);
           x_engaged_live = (fun () -> Rshadow.engaged_live sh);
           x_harvest = (fun () -> Rshadow.harvest_dead_holders sh);
         }
       in
       ({ Lock_type.acquire_robust; release_robust }, ext))
  in
  let lock : Lock_type.t =
    {
      name = "CLH";
      acquire =
        (fun ~tid ->
          Sim.store mine.(tid) 1;
          let prev = Sim.swap tail (mine.(tid) + 1) - 1 in
          pred.(tid) <- prev;
          if Sim.load prev = 1 then
            ignore (Sim.spin_load prev ~while_:1 ~poll:6));
      release =
        (fun ~tid ->
          Sim.store mine.(tid) 0;
          (* recycle the predecessor's node *)
          mine.(tid) <- pred.(tid);
          pred.(tid) <- -1);
      (* enqueue only behind a node already free (lock idle, no queue):
         the node stays private until the tail CAS succeeds, so a failed
         try leaves nothing for later acquirers to spin on *)
      try_acquire =
        (fun ~tid ->
          Sim.store mine.(tid) 1;
          let cur = Sim.load tail in
          let prev = cur - 1 in
          if Sim.load prev = 0
             && Sim.cas tail ~expected:cur ~desired:(mine.(tid) + 1)
          then begin
            pred.(tid) <- prev;
            true
          end
          else begin
            (* unpublished: reset our node and walk away *)
            Sim.store mine.(tid) 0;
            false
          end);
      robust = Lazy.map fst layer;
      rstats;
    }
  in
  let waiters ~tid = Sim.load tail <> mine.(tid) + 1 in
  (lock, waiters, Lazy.map snd layer)

let clh mem ~home_core ~n_threads ~place : Lock_type.t =
  let lock, _, _ = clh_ext mem ~home_core ~n_threads ~place in
  lock
