(* libssmp: message passing over cache coherence (paper section 4.1).

   A channel is one-directional and single-writer/single-reader.  Its
   buffer is a single cache line holding flag+payload in one word
   (0 = empty, v+1 = message v), so a message transmission is completed
   with single cache-line transfers: the receiver's read misses once per
   message and the sender's write re-acquires the line once — a one-way
   message costs roughly two line transfers and a round trip four
   (Figure 9).

   On the Tilera the channel uses the hardware mesh network instead
   (iMesh): messages bypass the coherence protocol and arrive with a
   fixed small latency, modeled by the platform's [hw_mp_latency].

   The [prefetchw] variant implements section 5.3's optimization on the
   Opteron: probing with an exclusive prefetch keeps the buffer line
   Modified at the prober, so the counterpart's store pays a directed
   transfer instead of the shared-store broadcast (up to 2.5x faster). *)

open Ssync_platform
open Ssync_coherence
open Ssync_engine
module Trace = Ssync_trace.Trace

type impl =
  | Coherence of { buf : Memory.addr; prefetchw : bool }
  | Hardware of {
      queue : (int * int) Queue.t; (* (deliver_at, payload) *)
      one_way : int; (* wire latency across the mesh *)
      recv_parker : Sim.parker; (* receiver waiting on an empty queue *)
      send_parker : Sim.parker; (* sender waiting on a full queue *)
    }

type t = {
  sender_core : int;
  receiver_core : int;
  impl : impl;
  sw_pause : int;
      (* per-message software overhead (flag checks, fences, buffer
         management), calibrated per platform against Figure 9 *)
  trace : (Trace.t * int) option;
      (* the memory's trace sink + this channel's registered id *)
}

(* The T2's fences/atomics make its libssmp path comparatively heavy
   (Figure 9: 181 cycles one-way for two contexts of one core whose raw
   line transfer costs ~24).  The overhead is distance-classed: two
   contexts of one physical core share the L1 and the pipeline's store
   path, so the flag checks and fences around each message resolve
   faster than when the endpoints cross the crossbar. *)
let platform_sw_pause (p : Platform.t) ~sender_core ~receiver_core =
  match p.Platform.id with
  | Arch.Niagara ->
      if Topology.same_node p.Platform.topo sender_core receiver_core then 75
      else 85
  | Arch.Tilera -> 20
  | Arch.Opteron | Arch.Xeon | Arch.Opteron2 | Arch.Xeon2 -> 0

let create ?(prefetchw = false) ?(use_hw = true) mem (platform : Platform.t)
    ~sender_core ~receiver_core : t =
  Topology.check platform.Platform.topo sender_core;
  Topology.check platform.Platform.topo receiver_core;
  let impl =
    match platform.Platform.hw_mp_latency with
    | Some lat when use_hw ->
        Hardware
          {
            queue = Queue.create ();
            one_way = lat sender_core receiver_core;
            recv_parker = Sim.make_parker ();
            send_parker = Sim.make_parker ();
          }
    | Some _ | None ->
        (* the buffer lives on the receiver's node *)
        Coherence { buf = Memory.alloc ~home_core:receiver_core mem; prefetchw }
  in
  let sw_pause =
    match impl with
    | Hardware _ -> 0
    | Coherence _ -> platform_sw_pause platform ~sender_core ~receiver_core
  in
  let trace =
    match Memory.trace mem with
    | None -> None
    | Some tr ->
        let kind =
          match impl with
          | Hardware _ -> "hw"
          | Coherence { prefetchw = true; _ } -> "pfw"
          | Coherence _ -> "coh"
        in
        let id =
          Trace.new_chan tr
            (Printf.sprintf "%s %d->%d" kind sender_core receiver_core)
        in
        Some (tr, id)
  in
  { sender_core; receiver_core; impl; sw_pause; trace }

(* Message-boundary instants on the acting thread's track; the line
   transfers they ride are already traced by the memory model. *)
let trace_send t =
  match t.trace with
  | Some (tr, id) ->
      Trace.send tr ~ts:(Sim.now ()) ~tid:(Sim.self_tid ()) ~chan:id
  | None -> ()

let trace_recv t =
  match t.trace with
  | Some (tr, id) ->
      Trace.recv tr ~ts:(Sim.now ()) ~tid:(Sim.self_tid ()) ~chan:id
  | None -> ()

(* Blocking send of [payload] (>= 0).  Must be called from the sending
   simulated thread. *)
let send t payload =
  if payload < 0 then invalid_arg "Channel.send: payload must be >= 0";
  (match t.impl with
  | Hardware h ->
      (* the NIC queue is small: block while the receiver lags *)
      let rec wait_space () =
        if Queue.length h.queue >= 4 then begin
          Sim.park h.send_parker ~poll:20;
          wait_space ()
        end
      in
      wait_space ();
      Sim.pause 20; (* feed the message into the mesh NIC *)
      Queue.push (Sim.now () + h.one_way, payload) h.queue;
      Sim.unpark h.recv_parker
  | Coherence { buf; prefetchw } ->
      Sim.pause t.sw_pause;
      if prefetchw then begin
        (* single atomic: probe and write in one exclusive transaction,
           so the buffer line is transferred exactly once per message;
           retries are back-to-back, like libssmp's tight CAS loop *)
        if not (Sim.cas buf ~expected:0 ~desired:(payload + 1)) then
          Sim.spin_cas buf ~expected:0 ~desired:(payload + 1) ~poll:0
      end
      else begin
        (* tight-spin until the receiver drains the previous message;
           the re-reads are local hits while we stay a sharer *)
        let rec wait_empty v =
          if v <> 0 then wait_empty (Sim.spin_load buf ~while_:v ~poll:0)
        in
        wait_empty (Sim.load buf);
        (* the flag store retires into the store buffer; the line
           transfer to the receiver overlaps with the sender's next
           message preparation (no fence before it) *)
        Sim.store_posted buf (payload + 1)
      end);
  trace_send t

(* Non-blocking receive. *)
let try_recv t =
  match t.impl with
  | Hardware h ->
      if Queue.is_empty h.queue then None
      else begin
        let deliver_at, payload = Queue.peek h.queue in
        if deliver_at <= Sim.now () then begin
          ignore (Queue.pop h.queue);
          Sim.pause 20; (* drain the message from the NIC *)
          Sim.unpark h.send_parker; (* the NIC queue has space again *)
          trace_recv t;
          Some payload
        end
        else None
      end
  | Coherence { buf; prefetchw } ->
      let consumed =
        if prefetchw then begin
          (* exclusive-prefetch probe: reads the flag and keeps the
             line reserved Modified here, so the sender's store pays a
             directed transfer; the clear retires through the store
             buffer *)
          let v = Sim.faa buf 0 in
          if v = 0 then None
          else begin
            Sim.store_posted buf 0;
            Some (v - 1)
          end
        end
        else begin
          let v = Sim.load buf in
          if v = 0 then None
          else begin
            Sim.store_posted buf 0;
            Some (v - 1)
          end
        end
      in
      (match consumed with
      | Some _ ->
          Sim.pause t.sw_pause;
          trace_recv t
      | None -> ());
      consumed

(* Blocking receive. *)
let recv t =
  match t.impl with
  | Hardware h ->
      (* poll the NIC every 10 cycles; event-driven, the empty-queue
         wait parks (the sender's push unparks us on the same 10-cycle
         grid) and the in-flight wait jumps straight to the grid point
         at/after delivery *)
      let rec loop () =
        match try_recv t with
        | Some v -> v
        | None ->
            if Queue.is_empty h.queue then Sim.park h.recv_parker ~poll:10
            else if Sim.event_driven_waits () then begin
              let deliver_at, _ = Queue.peek h.queue in
              let gap = deliver_at - Sim.now () in
              Sim.pause (10 * ((gap + 9) / 10))
            end
            else Sim.pause 10;
            loop ()
      in
      loop ()
  | Coherence { buf; prefetchw } ->
      (* tight-spin on the buffer, like libssmp: re-reads are local hits
         while the line stays cached, and the first probe after the
         sender's store pays the line transfer *)
      let v =
        if prefetchw then begin
          (* exclusive-prefetch probes: each reserves the line Modified
             here, so the sender's CAS pays a single directed transfer
             instead of a broadcast (section 5.3); the clear retires
             through the store buffer, overlapped with the next probe *)
          let v0 = Sim.faa buf 0 in
          let v =
            if v0 <> 0 then v0 else Sim.spin_faa0 buf ~while_:0 ~poll:0
          in
          Sim.store_posted buf 0;
          v
        end
        else begin
          let v0 = Sim.load buf in
          let v =
            if v0 <> 0 then v0 else Sim.spin_load buf ~while_:0 ~poll:0
          in
          Sim.store_posted buf 0;
          v
        end
      in
      Sim.pause t.sw_pause;
      trace_recv t;
      v - 1
